// Command frugal-datagen materialises the synthetic stand-in datasets to
// disk, for inspection or for feeding other tools: recommendation samples
// as CSV (label, then one categorical ID per feature), knowledge-graph
// triples as TSV (head, relation, tail), and raw key traces as one
// batch per line.
//
// Usage:
//
//	frugal-datagen -dataset Criteo -samples 10000 -o criteo.csv
//	frugal-datagen -dataset FB15k -samples 5000 -o fb15k.tsv
//	frugal-datagen -trace zipf-0.99 -keys 1000000 -batch 1024 -samples 100 -o trace.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"frugal/internal/data"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "Table 2 dataset name (REC → CSV, KG → TSV)")
		trace   = flag.String("trace", "", "emit a raw key trace instead: uniform, zipf-0.9, zipf-0.99")
		keys    = flag.Uint64("keys", 1_000_000, "trace key-space size")
		batch   = flag.Int("batch", 1024, "trace batch size / KG batch size")
		samples = flag.Int64("samples", 10_000, "samples (REC), triples (KG) or batches (trace)")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("o", "-", "output path ('-' = stdout)")
	)
	flag.Parse()

	w, closer, err := openOut(*out)
	if err != nil {
		fail(err)
	}
	defer closer()

	switch {
	case *trace != "":
		err = emitTrace(w, data.Distribution(*trace), *seed, *keys, *batch, *samples)
	case *dataset != "":
		err = emitDataset(w, *dataset, *seed, *batch, *samples)
	default:
		err = fmt.Errorf("need -dataset or -trace; see -h")
	}
	if err != nil {
		fail(err)
	}
}

func openOut(path string) (*bufio.Writer, func(), error) {
	if path == "-" {
		w := bufio.NewWriter(os.Stdout)
		return w, func() { w.Flush() }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() { w.Flush(); f.Close() }, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func emitTrace(w *bufio.Writer, dist data.Distribution, seed int64, keys uint64, batch int, batches int64) error {
	gen, err := data.NewGen(dist, seed, keys)
	if err != nil {
		return err
	}
	tr := data.NewSyntheticTrace(gen, batch, batches)
	for {
		ks, ok := tr.Next()
		if !ok {
			return nil
		}
		for i, k := range ks {
			if i > 0 {
				w.WriteByte(' ')
			}
			w.WriteString(strconv.FormatUint(k, 10))
		}
		w.WriteByte('\n')
	}
}

// datasetScale is the scale-down factor of a materialised dataset.
const datasetScale = 100_000

func emitDataset(w *bufio.Writer, name string, seed int64, batch int, samples int64) error {
	spec, err := data.SpecByName(name)
	if err != nil {
		return err
	}
	spec = spec.Scaled(datasetScale)
	if spec.Kind == data.KG {
		return emitKG(w, spec, seed, batch, samples)
	}
	return emitREC(w, spec, seed, samples)
}

func emitREC(w *bufio.Writer, spec data.Spec, seed, samples int64) error {
	const per = 256
	steps := (samples + per - 1) / per
	stream, err := data.NewRECStream(spec, seed, per, steps)
	if err != nil {
		return err
	}
	// Header.
	w.WriteString("label")
	for f := 0; f < spec.Features; f++ {
		fmt.Fprintf(w, ",f%d", f)
	}
	w.WriteByte('\n')
	emitted := int64(0)
	for emitted < samples {
		b, ok := stream.NextBatch()
		if !ok {
			return nil
		}
		for i := range b.Labels {
			if emitted >= samples {
				return nil
			}
			fmt.Fprintf(w, "%.0f", b.Labels[i])
			for f := 0; f < b.Features; f++ {
				fmt.Fprintf(w, ",%d", b.Keys[i*b.Features+f])
			}
			w.WriteByte('\n')
			emitted++
		}
	}
	return nil
}

func emitKG(w *bufio.Writer, spec data.Spec, seed int64, batch int, triples int64) error {
	if batch <= 0 {
		batch = 256
	}
	steps := (triples + int64(batch) - 1) / int64(batch)
	stream, err := data.NewKGStream(spec, seed, batch, 1, steps)
	if err != nil {
		return err
	}
	relOffset := uint64(spec.Vertices)
	emitted := int64(0)
	for emitted < triples {
		b, ok := stream.NextBatch()
		if !ok {
			return nil
		}
		for i := range b.Heads {
			if emitted >= triples {
				return nil
			}
			fmt.Fprintf(w, "%d\t%d\t%d\n", b.Heads[i], b.Rels[i]-relOffset, b.Tails[i])
			emitted++
		}
	}
	return nil
}

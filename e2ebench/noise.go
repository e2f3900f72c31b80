package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the machine-wide jiffy split from the first line of
// /proc/stat: steal is time the hypervisor ran someone else while this
// guest wanted a CPU.
type cpuTimes struct {
	total, steal int64
	ok           bool
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq steal …".
func parseCPULine(line string) cpuTimes {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// procUsage is this process's CPU time and peak resident set.
type procUsage struct {
	user, sys time.Duration
	maxRSSKB  int64
}

func readProcUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	return procUsage{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss, // kilobytes on Linux
	}
}

func (u procUsage) cpu() time.Duration { return u.user + u.sys }

// noiseProbe brackets a measured window with the numbers that explain
// run-to-run spread: host steal, process CPU and GC cycles.
type noiseProbe struct {
	cpu   cpuTimes
	usage procUsage
	gc    uint32
	at    time.Time
}

func startNoise() noiseProbe {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return noiseProbe{cpu: readCPUTimes(), usage: readProcUsage(), gc: ms.NumGC, at: time.Now()}
}

// noise is the attribution of one window.
type noise struct {
	StealJiffies int64
	StealShare   float64
	CPUUser      time.Duration
	CPUSys       time.Duration
	GCCycles     uint32
	Wall         time.Duration
}

func (p noiseProbe) stop() noise {
	end := startNoise()
	n := noise{
		CPUUser:  end.usage.user - p.usage.user,
		CPUSys:   end.usage.sys - p.usage.sys,
		GCCycles: end.gc - p.gc,
		Wall:     end.at.Sub(p.at),
	}
	if p.cpu.ok && end.cpu.ok {
		n.StealJiffies = end.cpu.steal - p.cpu.steal
		n.StealShare = ratio(float64(n.StealJiffies), float64(end.cpu.total-p.cpu.total))
	}
	return n
}

// buildIdentity names the toolchain and source revision the binary was
// built from ("unknown" outside a git checkout).
func buildIdentity() (goVersion, sha string, dirty bool) {
	goVersion, sha = goruntime.Version(), "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return
}

func (n noise) String() string {
	return fmt.Sprintf("steal_jiffies=%d steal_share=%.4f cpu_user_s=%.3f cpu_sys_s=%.3f gc_cycles=%d wall_s=%.3f",
		n.StealJiffies, n.StealShare, n.CPUUser.Seconds(), n.CPUSys.Seconds(), n.GCCycles, n.Wall.Seconds())
}

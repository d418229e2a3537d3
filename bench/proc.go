package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// gomaxprocs is fixed at the reference host's CPU count: the load is one
// process with at most two runnable threads, and a value that followed
// the host would make forest-sharded a different workload on each host.
const gomaxprocs = 2

// noScavengeFault is the GODEBUG setting every run needs: with the
// default (MADV_DONTNEED) the Go scavenger hands freed heap back to the
// kernel between reps and the next rep pays a page fault per page to get
// it back, which swings sys time from 0 to over a second per op. With
// MADV_FREE a released page that is reused before the kernel reclaims it
// costs no fault.
const noScavengeFault = "madvdontneed=0"

// reexecWithGodebug replaces the process with itself under
// GODEBUG=madvdontneed=0 unless that is already set. It only returns on
// error or when no re-exec is needed.
func reexecWithGodebug() error {
	cur := os.Getenv("GODEBUG")
	if strings.Contains(cur, noScavengeFault) {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("re-exec: %w", err)
	}
	val := noScavengeFault
	if cur != "" {
		val = cur + "," + noScavengeFault
	}
	env := append(os.Environ(), "GODEBUG="+val)
	return fmt.Errorf("re-exec %s: %w", exe, syscall.Exec(exe, os.Args, env))
}

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	wall      time.Time
	user, sys time.Duration
	minflt    int64
	allocB    uint64
	gcCycles  uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:     time.Now(),
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		minflt:   ru.Minflt,
		allocB:   ms.TotalAlloc,
		gcCycles: ms.NumGC,
	}
}

// opCost is what one operation cost the process.
type opCost struct {
	wallMs, userMs, sysMs float64
	minflt                int64
	allocMB               float64
	gcCycles              int
}

func (a usage) until(b usage) opCost {
	return opCost{
		wallMs:   ms(b.wall.Sub(a.wall)),
		userMs:   ms(b.user - a.user),
		sysMs:    ms(b.sys - a.sys),
		minflt:   b.minflt - a.minflt,
		allocMB:  float64(b.allocB-a.allocB) / (1 << 20),
		gcCycles: int(b.gcCycles - a.gcCycles),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// liveHeapMB is HeapAlloc after a forced collection; the caller keeps
// whatever it wants counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

var spinSink uint64

const (
	// The memory probe's working set: far beyond any cache, so a random
	// walk over it runs at the speed of the host's memory system.
	probeArenaBytes = 256 << 20
	batchProbe      = 3_000_000 // accesses: ~50 ms, around every batch rep
	queryProbe      = 500_000   // ~8 ms, before every serve query
	spinSteps       = 12_000_000

	// probeNominalNs is what the memory probe reads on the reference
	// host when its neighbours are quiet.
	probeNominalNs = 17.0
)

// hostFactor is how much longer than on the quiet reference host an
// operation takes while the memory probe reads probeNs, if memShare of
// its time moves with memory speed and the rest does not. Dividing a
// timing by it states the timing at the reference host's memory speed.
func hostFactor(memShare, probeNs float64) float64 {
	return (1 - memShare) + memShare*probeNs/probeNominalNs
}

var probeArena []uint64 // only ever touched from the run's main goroutine

// memProbeNs times a fixed random read-modify-write walk over the
// arena and returns ns per access: how fast the host's memory system is
// right now. On a shared host this reading moves by a factor of two
// over tens of seconds, and a memory-bound op moves with it.
func memProbeNs(accesses int) float64 {
	if probeArena == nil {
		// Mapped outside the Go heap: 256 MB of live heap would double
		// the collector's heap goal and change how often the program
		// under test collects.
		raw, err := syscall.Mmap(-1, 0, probeArenaBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("bench: mmap probe arena: %v", err)) // no memory, no measurement
		}
		probeArena = unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), probeArenaBytes/8)
		for i := range probeArena {
			probeArena[i] = uint64(i)
		}
	}
	mask := uint64(len(probeArena) - 1)
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < accesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeArena[x&mask] += x
	}
	spinSink = x
	return float64(time.Since(t0)) / float64(accesses)
}

// spinProbeNs times a fixed integer loop that touches no memory and
// returns ns per step: how fast the host's cores are right now.
func spinProbeNs(steps int) float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0)) / float64(steps)
}

// hostBlock describes where the numbers were taken.
type hostBlock struct {
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoDebug    string `json:"godebug"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readHost() hostBlock {
	return hostBlock{
		GoVersion:  runtime.Version(),
		Commit:     readCommit(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoDebug:    os.Getenv("GODEBUG"),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// readCommit finds the checked-out commit without running git: the
// benchmark also runs in exported checkouts that are not repositories.
func readCommit() string {
	for _, dir := range []string{"..", "."} {
		head, err := os.ReadFile(dir + "/.git/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			b, err := os.ReadFile(dir + "/.git/" + ref)
			if err != nil {
				return "unknown"
			}
			h = strings.TrimSpace(string(b))
		}
		if len(h) > 12 {
			h = h[:12]
		}
		return h
	}
	return "none"
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPUTicks parses the user+system CPU time, in clock ticks, out of
// a /proc/<pid>/stat line. The command name (field 2) is parenthesised
// and may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func procCPUTicks(stat []byte) (int64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, need 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return utime + stime, nil
}

// statusKB returns the kB value of one "Name:   value kB" line of a
// /proc/<pid>/status file (VmHWM, VmRSS, ...).
func statusKB(status []byte, name string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", name, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", name)
}

// stealTicks returns the aggregate steal time, in clock ticks, from the
// "cpu" line of /proc/stat (its eighth value).
func stealTicks(stat []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: cpu line has %d values, need 8", len(f)-1)
		}
		return strconv.ParseInt(f[8], 10, 64)
	}
	return 0, fmt.Errorf("/proc/stat: no cpu line")
}

// clockTicks returns the kernel's USER_HZ from the AT_CLKTCK entry of
// the process's auxiliary vector, falling back to the near-universal
// 100 when it cannot be read.
func clockTicks() int64 {
	const atClkTck = 17
	b, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	for len(b) >= 16 {
		key := binary.LittleEndian.Uint64(b)
		val := binary.LittleEndian.Uint64(b[8:])
		if key == atClkTck && val > 0 {
			return int64(val)
		}
		b = b[16:]
	}
	return 100
}

func readProcCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return procCPUTicks(b)
}

func readPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return statusKB(b, "VmHWM")
}

func readStealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return stealTicks(b)
}

// fsType names the filesystem holding dir, for the provenance record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// hostProbe times a fixed, program-independent piece of work — hashing
// plus a sort of fresh memory — as a record of how fast the host ran
// around a timed phase. Steal ticks miss contention from co-tenants on
// shared cores and memory; this does not. It is provenance, not a
// metric.
func hostProbe() time.Duration {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 0; i < 32; i++ {
		buf[0] = byte(i)
		sha256.Sum256(buf)
	}
	xs := make([]int, 1<<18)
	for i := range xs {
		xs[i] = (i * 7919) % 1000003
	}
	sort.Ints(xs)
	return time.Since(t0)
}

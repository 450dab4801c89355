package cpu_test

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/cpu"
)

// TestFlags: the kernels' dispatch rests on these two flags. AVX2 is
// never reported without AVX, whose registers it uses; and on Linux they
// agree with the flags the kernel lists in /proc/cpuinfo, which it also
// clears when the OS does not save the YMM registers, as cpu.AVX requires.
func TestFlags(t *testing.T) {
	if cpu.AVX2 && !cpu.AVX {
		t.Fatal("AVX2 is set without AVX")
	}
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"avx", cpu.AVX}, {"avx2", cpu.AVX2}} {
		if listed := slices.Contains(flags, f.name); listed != f.set {
			t.Errorf("/proc/cpuinfo lists %s: %v, the package says %v", f.name, listed, f.set)
		}
	}
}

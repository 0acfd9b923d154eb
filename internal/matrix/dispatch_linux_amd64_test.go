package matrix

import (
	"os"
	"strings"
	"testing"
)

// TestUseAVX2MatchesCPUInfo guards the CPUID check: when the kernel lists
// avx2 among the CPU flags, the AVX2 kernels must be selected. Without this,
// a broken check would run the Go loops on amd64 and the kernel-vs-Go-loop
// tests would compare the Go loops with themselves.
func TestUseAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(flags) {
			if f == "avx2" && !useAVX2 {
				t.Fatal("/proc/cpuinfo lists avx2 but useAVX2 is false")
			}
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

package cpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestCPUInfoMemoMatchesRenderer pins the memo table to the formatter byte
// for byte for every catalogued kind and every vCPU count it holds.
func TestCPUInfoMemoMatchesRenderer(t *testing.T) {
	for _, k := range Kinds() {
		for v := 1; v <= MaxVCPUs; v++ {
			if got, want := CPUInfo(k, v), renderCPUInfo(k, v); got != want {
				t.Errorf("CPUInfo(%v, %d) = %q, renderer %q", k, v, got, want)
			}
		}
	}
}

// TestCPUInfoOutsideMemo: counts past the table, clamped counts and unknown
// kinds render exactly as the formatter does.
func TestCPUInfoOutsideMemo(t *testing.T) {
	for _, k := range Kinds() {
		for _, v := range []int{-3, 0, 7, 64} {
			got, want := CPUInfo(k, v), renderCPUInfo(k, v)
			if got != want {
				t.Errorf("CPUInfo(%v, %d) = %q, renderer %q", k, v, got, want)
			}
			kind, procs, err := ParseCPUInfo(got)
			wantProcs := max(v, 1)
			if err != nil || kind != k || procs != wantProcs {
				t.Errorf("CPUInfo(%v, %d) parses to (%v, %d, %v), want (%v, %d)", k, v, kind, procs, err, k, wantProcs)
			}
		}
	}
	for _, k := range []Kind{0, -1, Kind(NumKinds + 1)} {
		for _, v := range []int{0, 1, 6, 7, 64} {
			if got := CPUInfo(k, v); got != "" {
				t.Errorf("CPUInfo(%d, %d) = %q, want empty", int(k), v, got)
			}
		}
	}
}

// TestHotpathAllocs: rendering and parsing cpuinfo for every kind a
// deployment can land on allocates nothing.
func TestHotpathAllocs(t *testing.T) {
	for _, k := range Kinds() {
		for v := 1; v <= MaxVCPUs; v++ {
			var kind Kind
			var procs int
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				kind, procs, err = ParseCPUInfo(CPUInfo(k, v))
			})
			if allocs != 0 {
				t.Errorf("ParseCPUInfo(CPUInfo(%v, %d)) allocates %.1f/op, budget 0", k, v, allocs)
			}
			if err != nil || kind != k || procs != v {
				t.Errorf("round trip (%v, %d) -> (%v, %d, %v)", k, v, kind, procs, err)
			}
		}
	}
}

// splitParseCPUInfo is the reference parser: the original strings.Split
// implementation, with FromModel's original linear catalog scan.
func splitParseCPUInfo(cpuinfo string) (Kind, int, error) {
	var model string
	procs := 0
	for _, line := range strings.Split(cpuinfo, "\n") {
		switch {
		case strings.HasPrefix(line, "processor"):
			procs++
		case strings.HasPrefix(line, "model name") && model == "":
			if _, rest, ok := strings.Cut(line, ":"); ok {
				model = strings.TrimSpace(rest)
			}
		}
	}
	if model == "" {
		return 0, 0, errors.New("no model name")
	}
	for _, k := range Kinds() {
		if MustLookup(k).Model == model {
			return k, procs, nil
		}
	}
	return 0, 0, fmt.Errorf("unknown model %q", model)
}

// FuzzParseCPUInfo holds ParseCPUInfo to the reference parser on arbitrary
// text, and rendered text to a round trip of (kind, vCPUs). Besides the
// rendered seeds below, testdata/fuzz/FuzzParseCPUInfo holds hand-written
// edge cases (CRLF line endings, no trailing newline, empty input, empty
// or unknown model names) that plain `go test` replays.
func FuzzParseCPUInfo(f *testing.F) {
	for _, k := range Kinds() {
		f.Add(CPUInfo(k, int(k)%MaxVCPUs+1), uint8(k), uint8(int(k)%MaxVCPUs+1))
	}
	f.Fuzz(func(t *testing.T, text string, kind, vcpus uint8) {
		k, procs, err := ParseCPUInfo(text)
		wk, wprocs, werr := splitParseCPUInfo(text)
		if k != wk || procs != wprocs || (err == nil) != (werr == nil) {
			t.Fatalf("ParseCPUInfo(%q) = (%v, %d, %v), reference (%v, %d, %v)", text, k, procs, err, wk, wprocs, werr)
		}

		k = Kind(kind)
		if !k.Valid() {
			return
		}
		v := int(vcpus)
		got, gotProcs, err := ParseCPUInfo(CPUInfo(k, v))
		if err != nil || got != k || gotProcs != max(v, 1) {
			t.Fatalf("CPUInfo(%v, %d) parses to (%v, %d, %v)", k, v, got, gotProcs, err)
		}
	})
}

// Package cpu catalogs the processor types observed behind serverless
// platforms in the paper (Fig. 2) and renders/parses the /proc/cpuinfo view
// a function instance sees.
//
// The catalog is the ground truth the rest of the system must *discover*:
// only the saaf profiler is allowed to look at a host's cpuinfo, exactly as
// the real SAAF tool infers hardware from inside a function instance.
//
// Every simulated invocation renders and parses cpuinfo once, so both sides
// are allocation-free (//lint:hotpath): the catalog is static, so CPUInfo
// serves the text for every (kind, vCPUs) a deployment can be granted from
// a table rendered at init, and ParseCPUInfo walks the text in place and
// maps the model name back through a reverse index.
package cpu

import (
	"errors"
	"fmt"
	"strings"
)

// Arch is an instruction-set architecture offered by a FaaS platform.
type Arch int

const (
	// X86 is the x86_64 architecture.
	X86 Arch = iota + 1
	// ARM is the arm64 (Graviton) architecture.
	ARM
)

// String returns the platform-facing architecture name.
func (a Arch) String() string {
	switch a {
	case X86:
		return "x86_64"
	case ARM:
		return "arm64"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Kind identifies a processor model observed on a serverless platform.
type Kind int

// The catalog. AWS Lambda exposes four x86 CPU types (three Intel Xeons at
// 2.5/2.9/3.0 GHz and one AMD EPYC) plus Graviton for arm64 deployments;
// IBM Code Engine exposes two Cascade Lake Xeons; DigitalOcean Functions
// exposes two Xeons (Fig. 2, §4.2).
const (
	Xeon25       Kind = iota + 1 // Intel Xeon @ 2.50GHz — most prevalent on Lambda
	Xeon29                       // Intel Xeon @ 2.90GHz
	Xeon30                       // Intel Xeon @ 3.00GHz — fastest for most workloads
	EPYC                         // AMD EPYC — rare, slowest for compute-bound work
	Graviton                     // AWS Graviton2 (arm64 deployments only)
	IBMCascade24                 // Intel Cascade Lake @ 2.40GHz (IBM Code Engine)
	IBMCascade25                 // Intel Cascade Lake @ 2.50GHz (IBM Code Engine)
	DOXeon26                     // Intel Xeon @ 2.60GHz (DigitalOcean Functions)
	DOXeon27                     // Intel Xeon @ 2.70GHz (DigitalOcean Functions)

	// NumKinds is the catalog size; the kinds are 1..NumKinds.
	NumKinds = int(DOXeon27)
)

// Kinds lists every catalogued processor in a stable order.
func Kinds() []Kind {
	out := make([]Kind, 0, NumKinds)
	for k := Xeon25; int(k) <= NumKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Info describes a catalogued processor.
type Info struct {
	Kind     Kind
	Vendor   string  // cpuinfo vendor_id
	Model    string  // cpuinfo "model name" string
	ClockGHz float64 // nominal clock as advertised in the model name
	Arch     Arch
}

// catalog is indexed by Kind; index 0 (no kind) is the zero Info.
var catalog = [NumKinds + 1]Info{
	Xeon25:       {Xeon25, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 2.50GHz", 2.50, X86},
	Xeon29:       {Xeon29, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 2.90GHz", 2.90, X86},
	Xeon30:       {Xeon30, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 3.00GHz", 3.00, X86},
	EPYC:         {EPYC, "AuthenticAMD", "AMD EPYC", 2.65, X86},
	Graviton:     {Graviton, "ARM", "AWS Graviton2", 2.50, ARM},
	IBMCascade24: {IBMCascade24, "GenuineIntel", "Intel(R) Xeon(R) Cascade Lake @ 2.40GHz", 2.40, X86},
	IBMCascade25: {IBMCascade25, "GenuineIntel", "Intel(R) Xeon(R) Cascade Lake @ 2.50GHz", 2.50, X86},
	DOXeon26:     {DOXeon26, "GenuineIntel", "Intel(R) Xeon(R) CPU @ 2.60GHz", 2.60, X86},
	DOXeon27:     {DOXeon27, "GenuineIntel", "Intel(R) Xeon(R) CPU @ 2.70GHz", 2.70, X86},
}

// byModel is the reverse index of catalog: model-name string to kind.
var byModel = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := Xeon25; int(k) <= NumKinds; k++ {
		m[catalog[k].Model] = k
	}
	return m
}()

// Lookup returns the catalog entry for k.
func Lookup(k Kind) (Info, bool) {
	if !k.Valid() {
		return Info{}, false
	}
	return catalog[k], true
}

// MustLookup returns the catalog entry for k and panics if k is not
// catalogued; use only with compile-time-known kinds.
func MustLookup(k Kind) Info {
	if !k.Valid() {
		panic(fmt.Sprintf("cpu: unknown kind %d", int(k))) //lint:allow hotalloc -- unreachable for kinds a parse returned; panics on programmer error
	}
	return catalog[k]
}

// String returns a short stable label used in tables and figures,
// e.g. "Xeon 2.50GHz" or "AMD EPYC".
func (k Kind) String() string {
	info, ok := Lookup(k)
	if !ok {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	switch k {
	case EPYC:
		return "AMD EPYC"
	case Graviton:
		return "Graviton2"
	default:
		return fmt.Sprintf("Xeon %.2fGHz", info.ClockGHz)
	}
}

// Valid reports whether k is a catalogued processor kind.
func (k Kind) Valid() bool {
	return k >= Xeon25 && int(k) <= NumKinds
}

// MaxVCPUs is the most vCPUs any platform memory setting grants a guest
// (Lambda's cap), and so the extent of CPUInfo's memo table.
const MaxVCPUs = 6

// rendered memoizes CPUInfo for every catalogued kind and 1..MaxVCPUs
// vCPUs; the catalog is static, so the text never changes.
var rendered = func() (t [NumKinds + 1][MaxVCPUs + 1]string) {
	for k := Xeon25; int(k) <= NumKinds; k++ {
		for v := 1; v <= MaxVCPUs; v++ {
			t[k][v] = renderCPUInfo(k, v)
		}
	}
	return t
}()

// CPUInfo renders the /proc/cpuinfo content a guest with vcpus virtual CPUs
// would observe on a host backed by k. The format carries the fields the
// saaf profiler inspects (vendor_id, model name, cpu MHz). Counts below 1
// are clamped to 1; catalogued kinds at up to MaxVCPUs vCPUs are served
// from the memo table without allocating.
//
//lint:hotpath
func CPUInfo(k Kind, vcpus int) string {
	if vcpus < 1 {
		vcpus = 1
	}
	if k.Valid() && vcpus <= MaxVCPUs {
		return rendered[k][vcpus]
	}
	return renderCPUInfo(k, vcpus) //lint:allow hotalloc -- unknown kind or a vCPU count past the memo table: rendered on demand
}

// renderCPUInfo is the formatter behind CPUInfo and its memo table.
func renderCPUInfo(k Kind, vcpus int) string {
	info, ok := Lookup(k)
	if !ok {
		return ""
	}
	if vcpus < 1 {
		vcpus = 1
	}
	var b strings.Builder
	for i := 0; i < vcpus; i++ {
		fmt.Fprintf(&b, "processor\t: %d\n", i)
		fmt.Fprintf(&b, "vendor_id\t: %s\n", info.Vendor)
		fmt.Fprintf(&b, "model name\t: %s\n", info.Model)
		fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n", info.ClockGHz*1000)
		b.WriteString("\n")
	}
	return b.String()
}

// errNoModel reports cpuinfo text without a usable "model name" line.
var errNoModel = errors.New("cpu: no model name in cpuinfo")

// ParseCPUInfo infers the processor kind from a /proc/cpuinfo dump, the way
// SAAF does from inside a function instance. It returns the kind and the
// number of processors listed. Lines are walked in place (no split), so a
// successful parse does not allocate.
//
//lint:hotpath
func ParseCPUInfo(cpuinfo string) (Kind, int, error) {
	var model string
	procs := 0
	for rest, more := cpuinfo, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		switch {
		case strings.HasPrefix(line, "processor"):
			procs++
		case strings.HasPrefix(line, "model name") && model == "":
			if _, value, ok := strings.Cut(line, ":"); ok {
				model = strings.TrimSpace(value)
			}
		}
	}
	if model == "" {
		return 0, 0, errNoModel
	}
	k, ok := byModel[model]
	if !ok {
		return 0, 0, unknownModel(model) //lint:allow hotalloc -- error branch: the model is not catalogued
	}
	return k, procs, nil
}

// FromModel maps a cpuinfo model-name string back to a catalogued kind.
func FromModel(model string) (Kind, error) {
	if k, ok := byModel[model]; ok {
		return k, nil
	}
	return 0, unknownModel(model)
}

func unknownModel(model string) error {
	return fmt.Errorf("cpu: unknown model %q", model)
}

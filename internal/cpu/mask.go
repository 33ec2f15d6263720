package cpu

// Mask is a bitset over the catalogued Kinds. The routing hot path carries
// ban sets as Masks instead of map[Kind]bool so that issuing an invocation
// allocates nothing: a Mask is one word, fits in a register, and tests
// membership with a shift.
type Mask uint16

// MaskOf builds a mask containing the given kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m = m.Add(k)
	}
	return m
}

// MaskOfSet converts a ban map (the Strategy interface currency) to a Mask.
// A nil or empty map yields the zero Mask.
func MaskOfSet(set map[Kind]bool) Mask {
	var m Mask
	for k, banned := range set {
		if banned {
			m = m.Add(k)
		}
	}
	return m
}

// Add returns m with k set. Kinds outside the catalog are ignored.
func (m Mask) Add(k Kind) Mask {
	if !k.Valid() {
		return m
	}
	return m | 1<<uint(k-1)
}

// Has reports whether k is in the mask.
func (m Mask) Has(k Kind) bool {
	if !k.Valid() {
		return false
	}
	return m&(1<<uint(k-1)) != 0
}

// Empty reports whether no kind is set.
func (m Mask) Empty() bool { return m == 0 }

// Count returns the number of kinds set.
func (m Mask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Set materializes the mask as a ban map for interfaces that still speak
// map[Kind]bool. Returns nil for the empty mask. This is the slow-path
// bridge — never call it per invocation.
func (m Mask) Set() map[Kind]bool {
	if m == 0 {
		return nil
	}
	out := make(map[Kind]bool, m.Count())
	for k := Xeon25; int(k) <= NumKinds; k++ {
		if m.Has(k) {
			out[k] = true
		}
	}
	return out
}

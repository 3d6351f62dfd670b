package packet

import (
	"cmp"
	"math/bits"
)

// pow10[i] is 10^i; 10^19 is the largest power of ten a uint64 holds.
var pow10 = [20]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of digits in v's decimal rendering.
func decimalLen(v uint64) int {
	// bits × log10(2) (1233/4096) is ⌊log10 v⌋ or one above it; the table
	// settles which. v|1 has as many digits as v and makes 0 one digit long.
	v |= 1
	t := bits.Len64(v) * 1233 >> 12
	if v < pow10[t] {
		return t
	}
	return t + 1
}

// CompareDecimal orders a and b as strings.Compare orders their decimal
// renderings when the same terminator byte follows both, without
// rendering either: the kernel under FlowKey.Compare and
// rules.Pattern.Compare, whose canonical orders are those of the rendered
// text. termAboveDigits says on which side of '0'–'9' the terminator
// sorts; it decides only when one rendering is a prefix of the other
// ("3" against "32": "3 " < "32 ", but "32:" < "3:"). The end of the
// string is a terminator below the digits.
func CompareDecimal(a, b uint64, termAboveDigits bool) int {
	if a == b {
		return 0
	}
	la, lb := decimalLen(a), decimalLen(b)
	if la == lb {
		return cmp.Compare(a, b)
	}
	// Set the shorter rendering against the longer one's leading digits. If
	// those are equal the shorter is a prefix, and its terminator meets a
	// digit.
	prefix := -1
	if termAboveDigits {
		prefix = 1
	}
	if la < lb {
		if lead := b / pow10[lb-la]; a != lead {
			return cmp.Compare(a, lead)
		}
		return prefix
	}
	if lead := a / pow10[la-lb]; lead != b {
		return cmp.Compare(lead, b)
	}
	return -prefix
}

// CompareDotted orders ip and o as their dotted-quad renderings order when
// the same byte follows both; lastTermAboveDigits places that byte as in
// CompareDecimal. The '.' after the first three octets sorts below the
// digits.
func (ip IP) CompareDotted(o IP, lastTermAboveDigits bool) int {
	for shift := 24; shift > 0; shift -= 8 {
		if a, b := byte(ip>>shift), byte(o>>shift); a != b {
			return CompareDecimal(uint64(a), uint64(b), false)
		}
	}
	return CompareDecimal(uint64(byte(ip)), uint64(byte(o)), lastTermAboveDigits)
}

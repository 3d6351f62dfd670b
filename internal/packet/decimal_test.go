package packet

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// checkDecimal is CompareDecimal's contract for one pair: the order of the
// two decimal texts with one terminator appended to both, for a terminator
// on either side of the digits.
func checkDecimal(t *testing.T, a, b uint64) {
	t.Helper()
	as, bs := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)
	for _, term := range []string{" ", ":"} {
		want := strings.Compare(as+term, bs+term)
		if got := CompareDecimal(a, b, term == ":"); got != want {
			t.Fatalf("CompareDecimal(%d, %d, %v) = %d, strings.Compare(%q, %q) = %d",
				a, b, term == ":", got, as+term, bs+term, want)
		}
	}
	// The end of the string is a terminator below the digits.
	if got, want := CompareDecimal(a, b, false), strings.Compare(as, bs); got != want {
		t.Fatalf("CompareDecimal(%d, %d, false) = %d, strings.Compare(%q, %q) = %d", a, b, got, as, bs, want)
	}
}

func TestCompareDecimalSmallPairs(t *testing.T) {
	for a := uint64(0); a < 1100; a++ {
		for b := uint64(0); b < 1100; b++ {
			checkDecimal(t, a, b)
		}
	}
}

// Every value within one of a power of ten, the edges of the range and the
// field widths the callers pass, each against each other: digit counts
// change here, and the longer value's leading digits are all 9s or 10…0.
func TestCompareDecimalPowerOfTenEdges(t *testing.T) {
	vals := []uint64{0, 1, 2, 255, 256, 65535, 65536, math.MaxUint32, math.MaxUint32 + 1,
		1 << 63, 1<<63 - 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, p := range pow10 {
		vals = append(vals, p-1, p, p+1)
	}
	for _, a := range vals {
		if got, want := decimalLen(a), len(strconv.FormatUint(a, 10)); got != want {
			t.Fatalf("decimalLen(%d) = %d, want %d", a, got, want)
		}
		for _, b := range vals {
			checkDecimal(t, a, b)
		}
	}
}

func FuzzCompareDecimal(f *testing.F) {
	f.Add(uint64(3), uint64(32))
	f.Add(uint64(100), uint64(10))
	f.Add(uint64(math.MaxUint64), uint64(1844674407))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		checkDecimal(t, a, b)
		// Truncations of a share its leading digits.
		for d := a; d > 0; d /= 10 {
			checkDecimal(t, a, d)
			checkDecimal(t, d, b)
		}
	})
}

package metrics

import (
	"reflect"
	"testing"
)

// distinctPrimes fills every uint64 field of a struct (via reflection)
// with a distinct prime, so any field a hand-written aggregate forgets
// shows up as a wrong sum rather than a silent zero.
var primes = []uint64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}

func fillStruct(t *testing.T, v reflect.Value) (sum uint64, fields int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("%s.%s is %s; the conservation law only covers uint64 counters",
				v.Type().Name(), v.Type().Field(i).Name, f.Kind())
		}
		if fields >= len(primes) {
			t.Fatalf("%s grew past the prime table; extend it", v.Type().Name())
		}
		f.SetUint(primes[fields])
		sum += primes[fields]
		fields++
	}
	return sum, fields
}

// TestDropCountersTotalCoversEveryField locks the conservation equation
// in = delivered + DropCounters.Total(): adding a new drop cause without
// counting it in Total() breaks the sum for ANY field values, because
// every field holds a distinct prime.
func TestDropCountersTotalCoversEveryField(t *testing.T) {
	var d DropCounters
	want, n := fillStruct(t, reflect.ValueOf(&d).Elem())
	if n == 0 {
		t.Fatal("DropCounters has no uint64 fields?")
	}
	if got := d.Total(); got != want {
		t.Fatalf("DropCounters.Total() = %d, want %d: a field is missing from Total(); "+
			"every drop cause must be counted or the conservation invariant silently breaks", got, want)
	}
}

// TestDropCountersAddCoversEveryField ensures the cluster-aggregation
// helper sums every cause: Add(self) must exactly double Total().
func TestDropCountersAddCoversEveryField(t *testing.T) {
	var d DropCounters
	want, _ := fillStruct(t, reflect.ValueOf(&d).Elem())
	sum := d.Add(d)
	if got := sum.Total(); got != 2*want {
		t.Fatalf("DropCounters.Add(self).Total() = %d, want %d: Add() drops a field", got, 2*want)
	}
	// Field-by-field: each must be exactly doubled (catches swapped
	// fields, which Total() alone would not).
	dv, sv := reflect.ValueOf(d), reflect.ValueOf(sum)
	for i := 0; i < dv.NumField(); i++ {
		if sv.Field(i).Uint() != 2*dv.Field(i).Uint() {
			t.Errorf("DropCounters.Add mangles field %s: %d -> %d",
				dv.Type().Field(i).Name, dv.Field(i).Uint(), sv.Field(i).Uint())
		}
	}
}

// TestCacheCountersAddCoversEveryField does the same for the megaflow
// cache counters: Add must double every field, element-wise.
func TestCacheCountersAddCoversEveryField(t *testing.T) {
	var c CacheCounters
	_, n := fillStruct(t, reflect.ValueOf(&c).Elem())
	if n == 0 {
		t.Fatal("CacheCounters has no uint64 fields?")
	}
	sum := c.Add(c)
	cv, sv := reflect.ValueOf(c), reflect.ValueOf(sum)
	for i := 0; i < cv.NumField(); i++ {
		if sv.Field(i).Uint() != 2*cv.Field(i).Uint() {
			t.Errorf("CacheCounters.Add mangles field %s: %d -> %d",
				cv.Type().Field(i).Name, cv.Field(i).Uint(), sv.Field(i).Uint())
		}
	}
}

// TestNICCountersAddCoversEveryField extends the conservation law to the
// SmartNIC tier's counters: Add must double every field, element-wise,
// so cluster-wide aggregation never silently drops a new cause.
func TestNICCountersAddCoversEveryField(t *testing.T) {
	var c NICCounters
	_, n := fillStruct(t, reflect.ValueOf(&c).Elem())
	if n == 0 {
		t.Fatal("NICCounters has no uint64 fields?")
	}
	sum := c.Add(c)
	cv, sv := reflect.ValueOf(c), reflect.ValueOf(sum)
	for i := 0; i < cv.NumField(); i++ {
		if sv.Field(i).Uint() != 2*cv.Field(i).Uint() {
			t.Errorf("NICCounters.Add mangles field %s: %d -> %d",
				cv.Type().Field(i).Name, cv.Field(i).Uint(), sv.Field(i).Uint())
		}
	}
}

// TestSketchCountersAddCoversEveryField extends the conservation law to
// the streaming flow-accounting counters: Add must double every field,
// element-wise, so per-shard aggregation never silently drops a counter.
func TestSketchCountersAddCoversEveryField(t *testing.T) {
	var c SketchCounters
	_, n := fillStruct(t, reflect.ValueOf(&c).Elem())
	if n == 0 {
		t.Fatal("SketchCounters has no uint64 fields?")
	}
	sum := c.Add(c)
	cv, sv := reflect.ValueOf(c), reflect.ValueOf(sum)
	for i := 0; i < cv.NumField(); i++ {
		if sv.Field(i).Uint() != 2*cv.Field(i).Uint() {
			t.Errorf("SketchCounters.Add mangles field %s: %d -> %d",
				cv.Type().Field(i).Name, cv.Field(i).Uint(), sv.Field(i).Uint())
		}
	}
}

// TestCacheCountersHitRateUsesHitsAndMisses pins HitRate's inputs so a
// refactor renaming the traffic counters cannot silently change its
// meaning.
func TestCacheCountersHitRateUsesHitsAndMisses(t *testing.T) {
	c := CacheCounters{Hits: 3, Misses: 1}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("HitRate() = %v, want 0.75", got)
	}
	if got := (CacheCounters{}).HitRate(); got != 0 {
		t.Fatalf("idle HitRate() = %v, want 0", got)
	}
}

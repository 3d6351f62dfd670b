package adminapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rules"
)

// pinServer is a Server whose rule hooks convert the spec the way the
// daemons do and record every pattern they accept.
func pinServer() (*Server, map[rules.Pattern]bool) {
	pinned := make(map[rules.Pattern]bool)
	hook := func(ps PatternSpec) error {
		p, err := ps.Pattern()
		if err != nil {
			return err
		}
		pinned[p] = true
		return nil
	}
	return New(Hooks{PinRule: hook, UnpinRule: hook}), pinned
}

func TestRulesRejectsBadSpecs(t *testing.T) {
	bodies := map[string]string{
		"negative src prefix":  `{"tenant":3,"src":"10.0.0.1","src_prefix":-8}`,
		"dst prefix beyond 32": `{"tenant":3,"dst":"10.0.0.2","dst_prefix":33}`,
		"prefix beyond a byte": `{"tenant":3,"src":"10.0.0.1","src_prefix":288}`,
		"bad ip":               `{"tenant":3,"src":"10.0.0"}`,
		"ipv6":                 `{"tenant":3,"dst":"::1"}`,
		"malformed json":       `{"tenant":3,"src":`,
		"unknown field":        `{"tenant":3,"srcip":"10.0.0.1"}`,
	}
	for name, body := range bodies {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			s, pinned := pinServer()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, "/v1/rules", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest || len(pinned) != 0 {
				t.Errorf("%s %s: status %d, %d patterns taken; want 400 and none", method, name, rec.Code, len(pinned))
			}
			var reply ErrorReply
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
				t.Errorf("%s %s: error body %q (%v)", method, name, rec.Body, err)
			}
		}
	}
}

func TestRulesPinRoundTripsThroughSpecOf(t *testing.T) {
	s, pinned := pinServer()
	body := `{"tenant":3,"src":"10.0.0.1","dst":"10.1.0.0","dst_prefix":16,"dst_port":11211,"proto":6}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rules", strings.NewReader(body)))
	if rec.Code != http.StatusOK || len(pinned) != 1 {
		t.Fatalf("status %d, %d patterns pinned: %s", rec.Code, len(pinned), rec.Body)
	}
	for p := range pinned {
		want := PatternSpec{Tenant: 3, Src: "10.0.0.1", SrcPrefix: 32, Dst: "10.1.0.0", DstPrefix: 16, DstPort: 11211, Proto: 6}
		if got := specOf(p); got != want {
			t.Fatalf("specOf(%v) = %+v, want %+v", p, got, want)
		}
		if back, err := specOf(p).Pattern(); err != nil || back != p {
			t.Fatalf("specOf(%v).Pattern() = %v, %v", p, back, err)
		}
	}
}

// FuzzPatternSpec: any JSON body either fails to convert or gives a
// pattern whose prefix lengths are at most 32 and which specOf renders
// back into a spec that converts to the same pattern.
func FuzzPatternSpec(f *testing.F) {
	f.Add([]byte(`{"tenant":3,"src":"10.0.0.1","src_prefix":-8}`))
	f.Add([]byte(`{"tenant":3,"src":"10.0.0.1","dst_prefix":24,"dst_port":80,"proto":17}`))
	f.Add([]byte(`{"any_tenant":true,"dst":"10.0.0.9","dst_prefix":256}`))
	f.Add([]byte(`{"tenant":1,"src_prefix":8}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps PatternSpec
		if json.Unmarshal(data, &ps) != nil {
			return
		}
		p, err := ps.Pattern()
		if err != nil {
			return
		}
		if p.SrcPrefix > 32 || p.DstPrefix > 32 {
			t.Fatalf("%+v converts to %v, a prefix beyond 32", ps, p)
		}
		if back, err := specOf(p).Pattern(); err != nil || back != p {
			t.Fatalf("%+v converts to %v, specOf of which converts to %v (%v)", ps, p, back, err)
		}
	})
}

// specOf renders a pattern back into its JSON form.
func specOf(p rules.Pattern) PatternSpec {
	ps := PatternSpec{
		Tenant:    uint32(p.Tenant),
		AnyTenant: p.AnyTenant,
		SrcPrefix: int(p.SrcPrefix),
		DstPrefix: int(p.DstPrefix),
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		Proto:     p.Proto,
	}
	if p.SrcPrefix > 0 {
		ps.Src = p.Src.String()
	}
	if p.DstPrefix > 0 {
		ps.Dst = p.Dst.String()
	}
	return ps
}

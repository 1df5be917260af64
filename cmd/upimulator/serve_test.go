package main

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseTenants checks the -tenants grammar's guarantees on whatever
// it accepts: every tenant has a name and only non-empty benchmarks, no
// name repeats, and a weight is either omitted (0, the default share) or
// finite and positive — a NaN or infinite weight would make the serving
// run's arrival rates NaN.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"alpha=VA+RED:3;beta=BS:1",
		"a=VA",
		"a=VA:NaN",
		"a=VA:Inf",
		"a=VA:-Inf",
		"a=VA:0",
		"a=VA;a=BS",
		" a = VA + RED ; b=BS:2.5;",
		"a=VA:1:2",
		"=VA",
		"a=",
		"a=VA++BS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := parseTenants(spec)
		if err != nil {
			return
		}
		if len(tenants) == 0 {
			t.Fatalf("%q: accepted with no tenants", spec)
		}
		seen := map[string]bool{}
		for _, tn := range tenants {
			if tn.Name == "" {
				t.Fatalf("%q: accepted a tenant without a name", spec)
			}
			if seen[tn.Name] {
				t.Fatalf("%q: accepted tenant %q twice", spec, tn.Name)
			}
			seen[tn.Name] = true
			if len(tn.Mix) == 0 {
				t.Fatalf("%q: tenant %q has no benchmarks", spec, tn.Name)
			}
			for _, b := range tn.Mix {
				if b == "" {
					t.Fatalf("%q: tenant %q has an empty benchmark", spec, tn.Name)
				}
			}
			if w := tn.Weight; w != 0 && !(w > 0 && !math.IsInf(w, 1)) {
				t.Fatalf("%q: tenant %q has weight %v", spec, tn.Name, w)
			}
		}
	})
}

func TestParseTenantsRejects(t *testing.T) {
	for spec, want := range map[string]string{
		"a=VA:NaN":  "finite positive",
		"a=VA:Inf":  "finite positive",
		"a=VA:+Inf": "finite positive",
		"a=VA:0":    "finite positive",
		"a=VA;a=BS": "named twice",
		"a=VA+":     "empty benchmark",
		";":         "empty tenant specification",
	} {
		if _, err := parseTenants(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseTenants(%q) err = %v, want %q", spec, err, want)
		}
	}
}

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("0.5, 0.9,,1.2")
	if err != nil || len(got) != 3 || got[0] != 0.5 || got[1] != 0.9 || got[2] != 1.2 {
		t.Fatalf("parseLoads = %v, %v", got, err)
	}
	for _, spec := range []string{"NaN", "0.5,Inf", "-1", "0", "x", ","} {
		if _, err := parseLoads(spec); err == nil {
			t.Errorf("parseLoads(%q) accepted", spec)
		}
	}
}

package main

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

// TestParseTenants covers the -tenants flag, the one parser of tenant
// specs: name:quota[:strict], comma-separated.
func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []repro.Tenant
		err  string // substring of the error; empty means success
	}{
		{in: "acme:40000,tiny:500", want: []repro.Tenant{{Name: "acme", Quota: 40000}, {Name: "tiny", Quota: 500}}},
		{in: " initech:30000:strict ", want: []repro.Tenant{{Name: "initech", Quota: 30000, Strict: true}}},
		{in: "", want: nil},
		{in: "   ", want: nil},
		{in: "acme", err: "bad tenant spec"},
		{in: "acme:", err: "bad tenant quota"},
		{in: "acme:lots", err: "bad tenant quota"},
		{in: "acme:10:lax", err: "bad tenant modifier"},
		{in: ":10", err: "bad tenant spec"},
		{in: "acme:10:strict:x", err: "bad tenant spec"},
		{in: "acme:10,tiny", err: "bad tenant spec"},
	} {
		got, err := parseTenants(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseTenants(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenants(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

package experiments

import (
	"strings"
	"testing"
)

// TestAsyncSyncMicro renders the async-vs-sync grid at micro scale and
// checks the determinism contract as data: every "+async" row (the
// degenerate trace) must carry exactly the same accuracy cells as its
// synchronous base row, while the "+stale" straggler rows must at least
// render. The full bit-identity matrix lives in internal/fl; this
// covers the experiment wiring — variant parsing, agent sizing, and the
// artifact pipeline.
func TestAsyncSyncMicro(t *testing.T) {
	out := AsyncSync(microScale(), 3)
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && (strings.HasPrefix(fields[0], "Fed")) {
			rows[fields[0]] = fields[1] + " " + fields[2]
		}
	}
	for _, m := range asyncMethods {
		if _, ok := rows[m]; !ok {
			t.Fatalf("method %q missing from output:\n%s", m, out)
		}
	}
	for _, base := range []string{"FedAvg", "FedDRL"} {
		if rows[base] != rows[base+"+async"] {
			t.Fatalf("%s degenerate async row %q differs from sync row %q",
				base, rows[base+"+async"], rows[base])
		}
	}
}

// TestParseMethod pins the method-id convention the cache keys depend
// on: a base method plus at most one async mode or FedDRL agent variant.
func TestParseMethod(t *testing.T) {
	for _, c := range []struct {
		in   string
		want cellMethod
	}{
		{"FedAvg", cellMethod{base: "FedAvg"}},
		{"SingleSet", cellMethod{base: "SingleSet"}},
		{"FedAvg+async", cellMethod{base: "FedAvg", async: "async"}},
		{"FedDRL+stale", cellMethod{base: "FedDRL", async: "stale"}},
		{"FedDRL+plain", cellMethod{base: "FedDRL", agent: "plain"}},
		{"FedDRL+twostage", cellMethod{base: "FedDRL", agent: "twostage"}},
	} {
		got, err := parseMethod(c.in)
		if err != nil || got != c.want {
			t.Fatalf("parseMethod(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "feddrl", "FedDRL+", "FedAvg+plain", "SingleSet+async", "FedDRL+nogap+async", "FedProx+twostage"} {
		if _, err := parseMethod(bad); err == nil {
			t.Fatalf("parseMethod(%q) accepted", bad)
		}
	}
}

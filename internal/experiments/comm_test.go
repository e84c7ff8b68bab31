package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"feddrl/internal/serialize"
)

// TestCommOverheadHonoursPrecision: the comm-overhead table accounts
// the scale's precision — K full-width weight vectors of downlink per
// round under f64, K half-width ones under f32.
func TestCommOverheadHonoursPrecision(t *testing.T) {
	cols := regexp.MustCompile(`\s{2,}`)
	for _, c := range []struct {
		prec string
		wire func(int) int
	}{{"", serialize.VectorWireSize}, {"f32", serialize.VectorWireSize32}} {
		s := CI()
		s.Precision = c.prec
		rows := 0
		for _, line := range strings.Split(CommOverhead(s, 1), "\n") {
			f := cols.Split(strings.TrimSpace(line), -1)
			if len(f) != 6 || !(strings.HasPrefix(f[0], "client model") || strings.HasPrefix(f[0], "VGGMini")) {
				continue
			}
			rows++
			params, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("precision %q: params column %q: %v", c.prec, f[1], err)
			}
			if want := byteStr(s.K * c.wire(params)); f[2] != want {
				t.Errorf("precision %q, %s: downlink %s, want %s", c.prec, f[0], f[2], want)
			}
		}
		if rows != 2 {
			t.Fatalf("precision %q: found %d model rows, want 2", c.prec, rows)
		}
	}
}

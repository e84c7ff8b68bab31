package experiments

import (
	"fmt"
	"strings"
	"time"

	"feddrl/internal/metrics"
)

// Figure9 reproduces the server computation-time study: the per-round
// cost of the DRL impact-factor decision versus the weighted weight
// aggregation, for a small CNN-sized model and a VGG-sized model. The
// paper's claim — the DRL overhead is trivial and model-size-independent
// while aggregation cost grows with the model — is checked by the
// benchmark harness as well.
func Figure9(s Scale, seed uint64) string {
	var b strings.Builder
	b.WriteString("Figure 9: average server computation time per round\n\n")
	tab := &metrics.Table{
		Headers: []string{"model", "params", "DRL decision", "aggregation"},
	}
	// The timing cells: FedDRL on CE at SmallN clients with the paper's
	// convolutional models and one local epoch, over half the rounds,
	// evaluating only at the end (a timing study skips most
	// evaluations).
	t := s
	t.UseConvNets = true
	t.Epochs = 1
	t.Rounds = max(3, s.Rounds/2)
	t.EvalEvery = t.Rounds
	for _, mc := range []struct {
		name    string
		dataset int
	}{{"SimpleCNN", mnist}, {"VGGMini", cifar100}} {
		res, err := RunCell(t, table3Spec(t, t.datasets()[mc.dataset].Name, "CE", "FedDRL", t.SmallN, seed))
		if err != nil {
			panic(err)
		}
		tab.AddRow(mc.name,
			fmt.Sprintf("%d", res.NumParam),
			fmtDur(res.MeanDecisionTime()),
			fmtDur(res.MeanAggTime()))
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(The paper reports ~3 ms DRL overhead regardless of model, and 3 ms vs 45 ms\naggregation for CNN vs VGG-11; the shape to check is decision-time constancy\nand aggregation growth with parameter count.)\n")
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1000)
	}
}

package fl

import (
	"fmt"

	"feddrl/internal/tensor"
)

// Float32 precision mode: the numeric width of the *federated state* —
// the weight vectors clients upload, the server's Eq. 4 merge, and the
// wire encoding — selectable per run via RunConfig.Precision.
//
// Under F32 the invariants are:
//
//   - The global model lives on the float32 lattice: the round loop
//     (RunAsync) carries it as []float64 (so evaluation, metrics and
//     Result stay unchanged) but every element is exactly
//     float32-representable (tensor.QuantizeLattice after init, exact
//     widening after each merge). Quantize∘Widen is the identity there, so no drift ever
//     accumulates from the representation choice.
//   - Clients train locally in float64 (the nn solver is untouched) and
//     quantize the uploaded weights once, at the round boundary, with
//     one round-to-nearest-even conversion per weight
//     (nn.ParamVector32) — 4 bytes per weight on the wire.
//   - Aggregation of an f32 cohort runs in pure float32 arithmetic:
//     impact factors rounded to float32, k-ascending Axpy32 folds, one
//     rounding per multiply and one per add. Results are bit-identical
//     across kernel backends and worker counts, exactly like the f64
//     path — the same determinism contract at half width.
//
// Every federated-state operation — AggregateOn, the built-in Mergers,
// compression and the quarantine screen — is written once over
// tensor.Elem. The width comes from the data: a cohort is f32 when its
// updates carry Weights32 and f64 when they carry Weights, and a cohort
// with the wrong width, mixed widths or no weights is library misuse
// that panics (see weightsAt).
//
// F64 (the default, including the zero value "") is bit-for-bit the
// pre-precision-mode behavior.

// Precision selects the federated-state width of a run.
type Precision string

const (
	// F64 is full-width federated state — the default and the paper's
	// setting. The zero value "" means F64.
	F64 Precision = "f64"
	// F32 is half-width federated state: f32 uploads, f32 aggregation,
	// 4-byte wire encoding.
	F32 Precision = "f32"
)

// ParsePrecision maps a user-facing flag value to a Precision. The
// empty string and "f64" both parse to F64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return "", fmt.Errorf("fl: unknown precision %q (valid: f32, f64)", s)
}

// Validate panics on an unknown precision value.
func (p Precision) Validate() {
	switch p {
	case "", F64, F32:
	default:
		panic(fmt.Sprintf("fl: unknown precision %q (valid: f32, f64)", string(p)))
	}
}

// BytesPerWeight returns the wire width of one weight under p.
func (p Precision) BytesPerWeight() int {
	if p == F32 {
		return 4
	}
	return 8
}

// cohortWidth reads a cohort's width from its first update: F32 when
// it carries only Weights32, F64 otherwise. weightsAt then holds every
// update of the cohort to that width.
func cohortWidth(updates []Update) Precision {
	if len(updates) > 0 && updates[0].Weights == nil && updates[0].Weights32 != nil {
		return F32
	}
	return F64
}

// weightsAt returns update i's upload at width E. An update carrying no
// weights, or only the other width, panics: a cohort has one width by
// contract, so a wrong-width or mixed cohort is a caller bug, and
// merging it would silently produce an empty model.
func weightsAt[E tensor.Elem](updates []Update, i int) []E {
	u := &updates[i]
	if w, _ := any(u.Weights).([]E); w != nil {
		return w
	}
	if w, _ := any(u.Weights32).([]E); w != nil {
		return w
	}
	if u.Weights == nil && u.Weights32 == nil {
		panic(fmt.Sprintf("fl: update %d (client %d) carries no weights", i, u.ClientID))
	}
	have, want := F32, F64
	if u.Weights != nil {
		have, want = F64, F32
	}
	panic(fmt.Sprintf("fl: update %d (client %d) carries %s weights in a %s merge; the cohort's width must match the entry (Merge for f64, Merge32 for f32)",
		i, u.ClientID, have, want))
}

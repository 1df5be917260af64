package figures

import (
	"fmt"

	"upim/internal/artifact"
	"upim/internal/figures/refdata"
)

// DefaultEpsilon is the relative tolerance Check applies by default. The
// simulator is deterministic, so regenerated tables normally match their
// references exactly; the slack absorbs harmless float noise (e.g. from a
// toolchain or architecture change) while still failing on any real shift
// in a figure.
const DefaultEpsilon = 0.01

// Check validates a regenerated experiment table against the committed
// reference artifact for (Key, Scale), cell by cell: string cells must match
// exactly, numeric cells within the relative eps (<= 0 selects
// DefaultEpsilon), and the reference's ID and Title must equal the table's,
// so a relabelled experiment cannot keep a stale reference. It returns an
// error describing the first deviating cells, or when no reference exists
// for the table's key and scale — references are only committed for the
// scales CI exercises (tiny).
func Check(tab *artifact.Table, eps float64) error {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	want, ok, err := refdata.Load(tab.Key, tab.Scale)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("figures: no reference data for %s at scale %q (references are generated with `upim figures -writeref`; tiny is the committed scale)",
			tab.Key, tab.Scale)
	}
	if want.ID != tab.ID || want.Title != tab.Title {
		return fmt.Errorf("figures: %s: reference is %q (%s), table is %q (%s); regenerate the reference",
			tab.Key, want.ID, want.Title, tab.ID, tab.Title)
	}
	return artifact.Compare(tab, want, eps)
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/cas"
)

// Fig4Row is one bar group of Figure 4: the four legs of an attestation
// and key-transfer round.
type Fig4Row struct {
	System           string
	Initialization   time.Duration
	SendQuote        time.Duration
	WaitConfirmation time.Duration
	ReceiveKeys      time.Duration
}

// Total sums the legs.
func (r Fig4Row) Total() time.Duration {
	return r.Initialization + r.SendQuote + r.WaitConfirmation + r.ReceiveKeys
}

// Figure4 reproduces the attestation and key-transfer latency comparison
// between the traditional IAS flow and the secureTF CAS (paper Fig. 4:
// CAS ≈ 17 ms vs IAS ≈ 325 ms, quote verification < 1 ms vs ≈ 280 ms):
// the legs of a one-container wave.
func Figure4(cfg Config) ([]Fig4Row, error) {
	cfg = cfg.withDefaults()
	cfg.logf("fig4: attesting one container through the CAS and through IAS")
	casWave, iasWave, err := attestWaves(1)
	if err != nil {
		return nil, err
	}
	row := func(system string, t cas.AttestTiming) Fig4Row {
		return Fig4Row{system, t.Initialization, t.SendQuote, t.WaitConfirmation, t.ReceiveKeys}
	}
	return []Fig4Row{row("IAS", iasWave[0]), row("secureTF CAS", casWave[0])}, nil
}

// PrintFigure4 renders the rows as a table.
func PrintFigure4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4 — attestation and key-transfer latency (ms)")
	fmt.Fprintf(w, "%-14s %12s %12s %16s %12s %10s\n",
		"system", "init", "send-quote", "wait-confirm", "recv-keys", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12s %12s %16s %12s %10s\n",
			r.System, fmtDur(r.Initialization), fmtDur(r.SendQuote),
			fmtDur(r.WaitConfirmation), fmtDur(r.ReceiveKeys), fmtDur(r.Total()))
	}
}

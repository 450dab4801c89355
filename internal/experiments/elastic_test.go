package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestElasticScalingShape(t *testing.T) {
	const wave = 3
	casTotal, iasTotal, err := ElasticScaling(wave)
	if err != nil {
		t.Fatal(err)
	}
	// Challenge ➍'s shape: the CAS makes autoscaling practical — an
	// order of magnitude faster than the WAN-bound IAS, and a few tens
	// of milliseconds per container.
	band(t, "IAS/CAS wave", float64(iasTotal)/float64(casTotal), 10, math.Inf(1), "an order of magnitude")
	ms := float64(time.Millisecond)
	band(t, "CAS attestation per container, ms", float64(casTotal/wave)/ms, 0, 100, "tens of ms")
	if casTotal/wave <= 0 {
		t.Errorf("CAS per-container attestation %v costs nothing", casTotal/wave)
	}
	band(t, "IAS attestation per container, ms", float64(iasTotal/wave)/ms, 200, math.Inf(1), "the WAN floor")

	var buf bytes.Buffer
	PrintElasticScaling(&buf, wave, casTotal, iasTotal)
	for _, want := range []string{"Elastic scaling", "IAS", "secureTF CAS", "speedup"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("print output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestElasticScalingValidation(t *testing.T) {
	if _, _, err := ElasticScaling(0); err == nil {
		t.Fatal("zero-container wave accepted")
	}
}

package netwire

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// TestNetwireMetricsExposition drives real traffic through a cluster
// instrumented into a shared registry, scrapes the Prometheus endpoint
// over HTTP, and asserts every netwire_* family is exposed with exactly
// the label sets the package documents — the contract dashboards are
// built against. The router is a Model-II router instrumented into the
// same registry, as a live run wires it, so its SPNE cache families are
// held to the same contract.
func TestNetwireMetricsExposition(t *testing.T) {
	topo := buildTopo(8, 4, 17)
	avail := make(map[overlay.NodeID]float64, len(topo))
	for id := range topo {
		avail[id] = 0.5
	}
	r := transport.NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	c := NewCluster(Config{})
	c.Instrument(reg)
	t.Cleanup(c.Close)
	for id := range topo {
		if err := c.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RunBatch(0, 7, 1, 3, 4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Probe(0, 1, 2*time.Second) {
		t.Fatal("probe failed")
	}
	// The probe's frames_total{sent} is counted once its write returns,
	// which can be after the ack already resolved Probe: wait for it.
	sentProbes := reg.Counter("netwire_frames_total", telemetry.Labels{"dir": "sent", "kind": "probe"})
	for deadline := time.Now().Add(5 * time.Second); sentProbes.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the probe's write was never counted")
		}
	}

	srv, err := telemetry.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body := string(raw)

	// Every netwire family must carry a HELP line (the self-documenting
	// endpoint the README promises).
	for _, family := range []string{
		"netwire_dials_total", "netwire_frames_total", "netwire_bytes_total",
		"netwire_queue_depth_high_water", "netwire_conns_open",
		"netwire_deadline_hits_total", "netwire_messages_total",
		"netwire_nacks_total", "netwire_contract_rejects_total",
		"netwire_timeouts_total", "netwire_reformations_total",
		"netwire_stale_replies_total", "netwire_closed_batch_total",
		"netwire_malformed_total", "netwire_connections_total", "netwire_settlements_total",
		"netwire_connect_latency_seconds", "netwire_path_length_hops",
		"netwire_nack_hops",
		"transport_spne_cache_total",
	} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}

	// Exact label sets: dials by result, deadline hits by op, messages and
	// connections by their documented splits, frames by direction × kind
	// (labels render sorted, so dir comes first).
	series := []string{
		`netwire_dials_total{result="ok"}`,
		`netwire_dials_total{result="fail"}`,
		`netwire_dials_total{result="rejected"}`,
		`netwire_deadline_hits_total{op="read"}`,
		`netwire_deadline_hits_total{op="write"}`,
		`netwire_deadline_hits_total{op="expired"}`,
		`netwire_messages_total{kind="sent"}`,
		`netwire_messages_total{kind="dropped"}`,
		`netwire_connections_total{result="ok"}`,
		`netwire_connections_total{result="fail"}`,
		`netwire_stale_replies_total`,
		`netwire_closed_batch_total`,
		`netwire_malformed_total`,
		`netwire_bytes_total{dir="sent"}`,
		`netwire_bytes_total{dir="recv"}`,
		`netwire_conns_open`,
		`transport_spne_cache_total{result="hit"}`,
		`transport_spne_cache_total{result="miss"}`,
	}
	for k := KindHello; k < kindEnd; k++ {
		series = append(series,
			fmt.Sprintf(`netwire_frames_total{dir="sent",kind=%q}`, k.String()),
			fmt.Sprintf(`netwire_frames_total{dir="recv",kind=%q}`, k.String()))
	}
	for _, s := range series {
		if !strings.Contains(body, s+" ") {
			t.Errorf("missing series %s", s)
		}
	}

	// The batch above must be visible in the scraped values: 3 completed
	// connections — each one solve — at least
	// one successful dial, live byte counters, and a 3-observation latency
	// histogram.
	for series, min := range map[string]int{
		`netwire_connections_total{result="ok"}`:            3,
		`netwire_dials_total{result="ok"}`:                  1,
		`netwire_bytes_total{dir="sent"}`:                   1,
		`netwire_bytes_total{dir="recv"}`:                   1,
		`netwire_messages_total{kind="sent"}`:               1,
		`netwire_frames_total{dir="sent",kind="probe"}`:     1,
		`netwire_frames_total{dir="recv",kind="probe_ack"}`: 1,
		`netwire_connect_latency_seconds_count`:             3,
		`transport_spne_cache_total{result="miss"}`:         3,
	} {
		if got := scrapeValue(t, body, series); got < min {
			t.Errorf("%s = %d, want >= %d", series, got, min)
		}
	}
	// An honest run has no malformed reply.
	if got := scrapeValue(t, body, `netwire_malformed_total`); got != 0 {
		t.Errorf("netwire_malformed_total = %d on an honest run, want 0", got)
	}
	// Every node is hosted here, so each open connection is counted once
	// at each of its two ends.
	if open := scrapeValue(t, body, `netwire_conns_open`); open < 2 || open%2 != 0 {
		t.Errorf("netwire_conns_open = %d, want an even count of at least 2", open)
	}

	// Histograms must expose cumulative buckets with le labels.
	if !regexp.MustCompile(`netwire_connect_latency_seconds_bucket\{le="[^"]+"\} \d`).MatchString(body) {
		t.Error("connect latency histogram has no le buckets")
	}
}

// scrapeValue extracts one integer sample from the exposition text.
func scrapeValue(t *testing.T, body, series string) int {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v int
			if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
				t.Fatalf("series %s: bad sample %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

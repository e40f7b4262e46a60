package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", nil).Add(3)
	reg.Histogram("lat_seconds", []float64{0.01}, nil).Observe(0.005)
	rec := NewSpanRecorder(2)
	trace, root := rec.Root(1, 0, 9)
	for conn := 1; conn <= 4; conn++ {
		rec.Emit(Span{Trace: trace, Parent: root, Kind: SpanLaunch, Batch: 1, Conn: conn, Attempt: 1})
	}

	ts := httptest.NewServer(Handler(reg, rec))
	defer ts.Close()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	// The recorder's own accounting is refreshed per scrape: 5 spans into
	// a capacity of 2 means 3 dropped, and both series carry HELP text.
	for _, want := range []string{
		"hits_total 3", `lat_seconds_bucket{le="0.01"} 1`, "lat_seconds_count 1",
		"# HELP telemetry_spans_recorded ", "# HELP telemetry_spans_dropped ",
		"telemetry_spans_recorded 2", "telemetry_spans_dropped 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(body, `"hits_total"`) {
		t.Fatalf("/metrics.json status %d body %s", code, body)
	}

	// /trace is the canonical span log: it reads back as exactly what the
	// recorder retains.
	code, body = get(t, ts.URL+"/trace")
	served, err := ReadSpans(strings.NewReader(body))
	if code != http.StatusOK || err != nil || !reflect.DeepEqual(served, rec.Spans()) {
		t.Fatalf("/trace status %d err %v body %s", code, err, body)
	}

	code, _ = get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestServeEphemeral(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up", nil).Set(1)
	srv, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "up 1") {
		t.Fatalf("status %d body %s", code, body)
	}
	// /trace with a nil recorder serves an empty document, not an error.
	code, body = get(t, "http://"+srv.Addr()+"/trace")
	if code != http.StatusOK || body != "" {
		t.Fatalf("nil-recorder /trace: status %d body %q", code, body)
	}
}

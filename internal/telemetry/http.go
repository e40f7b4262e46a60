package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler exposing the registry and the span
// recorder:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  expvar-style JSON snapshot
//	/trace         the recorder's canonical span log as JSONL
//	/debug/pprof/  the standard runtime profiles
//
// reg and spans may each be nil; the corresponding endpoints then serve
// empty documents.
func Handler(reg *Registry, spans *SpanRecorder) http.Handler {
	mux := http.NewServeMux()
	if reg != nil && spans != nil {
		reg.Help("telemetry_spans_recorded", "Distinct spans the recorder retains.")
		reg.Help("telemetry_spans_dropped", "Spans the recorder's capacity bound rejected.")
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// The recorder's own accounting is refreshed at scrape time, so its
		// loss is visible on the same dashboard as everything it traces.
		if reg != nil && spans != nil {
			reg.Gauge("telemetry_spans_recorded", nil).Set(int64(spans.Total()))
			reg.Gauge("telemetry_spans_dropped", nil).Set(int64(spans.Dropped()))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = spans.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a live exposition endpoint bound to a TCP address.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an exposition server on addr (e.g. ":9090", or ":0" for
// an ephemeral port — read the bound address back with Addr). The server
// runs until Close.
func Serve(addr string, reg *Registry, spans *SpanRecorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: Handler(reg, spans), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

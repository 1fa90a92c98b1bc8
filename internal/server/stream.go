package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/flight"
	"capsim/internal/obs"
	"capsim/internal/sweep"
)

// This file is the live run feed behind POST /v1/run {"stream": true}: the
// flight recorder's ledger lines (run columns, sweep progress) pushed to the
// client as the experiment computes, terminated by a "result" line carrying
// the ordinary RunResponse. The stream speaks NDJSON by default and SSE when
// the client asks (`Accept: text/event-stream`), so both `curl | jq` and
// EventSource dashboards work.
//
// Contract notes:
//
//   - The recorder is installed per-request via flight.WithCollector, so
//     concurrent streamed runs never interleave events; the process-wide
//     -ledger-out collector (if any) still sees every run.
//   - Streamed runs bypass the response cache AND singleflight: the events
//     are the product, and a coalesced run would deliver them to whichever
//     request computed first. Admission control still applies — a streamed
//     run occupies a run slot like any other.
//   - Client disconnect cancels the run through the same context plumbing as
//     the buffered path (request context ∧ drain-expiry ∧ timeout); a write
//     failure additionally quiets the collector so a dead client costs no
//     further encoding.
//   - Errors after the 200 header are in-band: a terminal "error" line with
//     the same status code mapErr would have chosen.

var obsStreams = obs.NewCounter("server.streams") // streamed runs started

// streamSink adapts an http.ResponseWriter into a flight.Sink, flushing
// after every write so events reach the client as they happen.
type streamSink struct {
	mu    sync.Mutex
	w     io.Writer
	flush func()
	sse   bool
}

// WriteRun implements flight.Sink.
func (s *streamSink) WriteRun(run int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	var buf bytes.Buffer
	if err := flight.EncodeRun(&buf, run, meta, events, end); err != nil {
		return err
	}
	return s.emit(buf.Bytes())
}

// WriteProgress implements flight.Sink.
func (s *streamSink) WriteProgress(p flight.Progress) error {
	var buf bytes.Buffer
	if err := flight.EncodeProgress(&buf, p); err != nil {
		return err
	}
	return s.emit(buf.Bytes())
}

// emit writes one or more NDJSON lines to the client, wrapping each as an
// SSE data event when negotiated, and flushes.
func (s *streamSink) emit(lines []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.sse {
		for _, line := range bytes.Split(bytes.TrimRight(lines, "\n"), []byte("\n")) {
			if _, err = fmt.Fprintf(s.w, "data: %s\n\n", line); err != nil {
				break
			}
		}
	} else {
		_, err = s.w.Write(lines)
	}
	if s.flush != nil {
		s.flush()
	}
	return err
}

// emitJSON marshals v as one ledger-style line ({"t": t, ...payload}).
func (s *streamSink) emitJSON(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.emit(append(buf, '\n'))
}

// handleStream serves a {"stream": true} run: 200 + event feed + terminal
// result/error line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, req *RunRequest, cfg experiments.Config) {
	obsStreams.Inc1()
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	sink := &streamSink{w: w, sse: sse}
	if f, ok := w.(http.Flusher); ok {
		sink.flush = f.Flush
	}

	// The versioned header line opens the stream (same shape as a ledger
	// file, so `capsim -report` parses a saved stream verbatim).
	var hdr bytes.Buffer
	if err := flight.EncodeHeader(&hdr, time.Now().UTC().Format(time.RFC3339)); err == nil {
		sink.emit(hdr.Bytes())
	}

	ctx, cleanup := s.runCtx(r.Context(), req)
	defer cleanup()
	collector := flight.NewCollector(sink)
	ctx = flight.WithCollector(ctx, collector)

	sp := obs.StartSpan("server.stream:"+req.Experiment, 0)
	resp, err := s.compute(ctx, req.Experiment, cfg)
	if err != nil {
		obsRunErrors.Inc1()
		status, msg := s.mapErr(err)
		sp.End(obs.Arg{K: "err", V: msg}, obs.Arg{K: "status", V: status})
		sink.emitJSON(struct {
			T      string `json:"t"`
			Error  string `json:"error"`
			Status int    `json:"status"`
		}{T: "error", Error: msg, Status: status})
		return
	}
	obsRunOK.Inc1()
	sp.End(obs.Arg{K: "cached", V: false})
	sink.emitJSON(struct {
		T        string       `json:"t"`
		Response *RunResponse `json:"response"`
	}{T: "result", Response: resp})
}

// runCtx assembles a run's execution context — client disconnect ∧ server
// drain-expiry ∧ timeout, plus the per-request worker override — shared by
// the buffered and streaming paths. The returned cleanup releases every
// layer; call it when the run is done.
func (s *Server) runCtx(reqCtx context.Context, req *RunRequest) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(reqCtx)
	stop := context.AfterFunc(s.root, cancel)
	timeout := s.opt.RunTimeout
	if d := time.Duration(req.TimeoutMS) * time.Millisecond; d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	tcancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, tcancel = context.WithTimeout(ctx, timeout)
	}
	// Every request gets a budget of its own, so concurrent requests
	// never share (or starve each other of) workers.
	workers := req.Parallel
	if workers <= 0 {
		workers = sweep.DefaultWorkers()
	} else if workers > s.opt.MaxParallel {
		workers = s.opt.MaxParallel
	}
	ctx = sweep.WithWorkers(ctx, workers)
	return ctx, func() {
		tcancel()
		stop()
		cancel()
	}
}

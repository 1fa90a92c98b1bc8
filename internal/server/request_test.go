package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
)

// FuzzRunRequest feeds arbitrary bodies through POST /v1/run's request
// path: the strict decoder exactly as handleRun configures it (body capped
// at maxRequestBody, unknown fields rejected), then resolve over the
// server's default base configuration. Nothing may panic, and every
// rejection must be a decode error (answered 400) or an *httpError carrying
// 400 or 422 — never a bare error or another status.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig10"}`,
		`{"experiment":"zoo","queue_instrs":3000,"parallel":2,"stream":true}`,
		`{"experiment":"fig1a","seed":18446744073709551615,"cache_refs":-1}`,
		`{"experiment":"fig12","interval":0,"switch_penalty":-5,"feature":1e308}`,
		`{"experiment":"fig7","feature":-0.18,"timeout_ms":-1}`,
		`{"experiment":"fig99"}`,
		`{"experiment":"fig1a","bogus":1}`,
		`{"experiment":`,
		`{}`,
		`[]`,
		`null`,
		`{"experiment":"fig10","cache_warm":9223372036854775807,"queue_instrs":1}`,
	} {
		f.Add([]byte(seed))
	}
	base := New(Options{}).opt.BaseConfig
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxRequestBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // handleRun answers every decode error with 400
		}
		_, err := req.resolve(base)
		if err == nil {
			return
		}
		var he *httpError
		if !errors.As(err, &he) {
			t.Fatalf("resolve rejected %q with a bare %T: %v", body, err, err)
		}
		if he.status != http.StatusBadRequest && he.status != http.StatusUnprocessableEntity {
			t.Fatalf("resolve rejected %q with status %d: %v", body, he.status, err)
		}
	})
}

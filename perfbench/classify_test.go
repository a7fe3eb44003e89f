package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"raal/internal/serve"
)

func TestClassifyAgainstAStubServer(t *testing.T) {
	want := answer{cost: 1.25, index: 1, cands: 3}
	good := serve.EstimateResponse{CostSec: 1.25, Source: "model", PlanIndex: 1, Candidates: 3}
	reply := func(status int, v any) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(status)
			switch b := v.(type) {
			case string:
				w.Write([]byte(b))
			default:
				json.NewEncoder(w).Encode(b)
			}
		}
	}
	with := func(f func(*serve.EstimateResponse)) serve.EstimateResponse {
		r := good
		f(&r)
		return r
	}
	cases := []struct {
		name     string
		h        http.HandlerFunc
		isSelect bool
		want     string
	}{
		{"correct", reply(http.StatusOK, good), true, ""},
		// A non-finite prediction fails JSON encoding after the 200 is
		// written: the body comes back empty.
		{"empty 200", reply(http.StatusOK, ""), true, failEmpty},
		{"whitespace 200", reply(http.StatusOK, "\n"), true, failEmpty},
		{"undecodable", reply(http.StatusOK, `{"cost_sec":`), true, failUndecodable},
		{"non-200", reply(http.StatusInternalServerError, serve.ErrorResponse{Error: "boom"}), true, failStatus},
		{"429", reply(http.StatusTooManyRequests, serve.ErrorResponse{Error: "full"}), true, failStatus},
		{"degraded", reply(http.StatusOK, with(func(r *serve.EstimateResponse) { r.Degraded = true; r.Source = "fallback" })), true, failDegraded},
		{"cost one ulp off", reply(http.StatusOK, with(func(r *serve.EstimateResponse) { r.CostSec = 1.2500000000000002 })), true, failMismatch},
		{"other plan", reply(http.StatusOK, with(func(r *serve.EstimateResponse) { r.PlanIndex = 0 })), true, failMismatch},
		{"plan index ignored on /estimate", reply(http.StatusOK, with(func(r *serve.EstimateResponse) { r.PlanIndex = 0 })), false, ""},
		{"candidate count", reply(http.StatusOK, with(func(r *serve.EstimateResponse) { r.Candidates = 2 })), false, failMismatch},
	}
	c := &http.Client{}
	for _, tc := range cases {
		srv := httptest.NewServer(tc.h)
		status, body, _, err := post(c, srv.URL, []byte(`{}`), 1, 0)
		if got := classify(status, body, err, want, tc.isSelect); got != tc.want {
			t.Errorf("%s: classified %q, want %q", tc.name, got, tc.want)
		}
		srv.Close()
	}

	srv := httptest.NewServer(reply(http.StatusOK, good))
	srv.Close()
	status, body, _, err := post(c, srv.URL, []byte(`{}`), 1, 0)
	if got := classify(status, body, err, want, true); got != failTransport {
		t.Errorf("closed server: classified %q, want %q", got, failTransport)
	}
}

package cluster

import (
	"encoding/json"
	"net/http"

	"matchsim/api"
	"matchsim/internal/httpapi"
)

// NewServer builds the coordinator's HTTP surface: the routes every matchd
// serves (see package httpapi, which also lists the worker-only routes a
// coordinator does not serve) plus GET /v1/cluster and
// POST /v1/cluster/drain.
func NewServer(co *Coordinator) *httpapi.Server {
	s := httpapi.NewServer(co)
	s.Handle("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, co.Status())
	})
	// The drain body names the worker ({"worker": "http://..."}).
	s.Handle("POST /v1/cluster/drain", func(w http.ResponseWriter, r *http.Request) {
		var req api.ClusterDrainRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, "invalid drain body: %v", err)
			return
		}
		if err := co.DrainWorker(req.Worker); err != nil {
			httpapi.WriteError(w, http.StatusNotFound, "%v", err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, co.Status())
	})
	return s
}

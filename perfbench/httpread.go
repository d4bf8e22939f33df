package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"ref/internal/obs"
	"ref/internal/serve"
)

// readKind enumerates the closed-loop HTTP reads.
type readKind int

const (
	readAgent    readKind = iota // GET /v1/allocation?agent=
	readDelta                    // GET /v1/allocation?since=
	readSnapshot                 // GET /v1/allocation
	numReadKinds
)

var (
	readNames = [numReadKinds]string{"agent", "since", "snapshot"}
	// readMix weighs the reads each closed-loop reader draws.
	readMix = [numReadKinds]int{6, 3, 1}
)

// maxSinceBack is how many epochs behind its last response a ?since=
// read starts; the server keeps 64.
const maxSinceBack = 8

// readRecord is one closed-loop HTTP read, timed from send to its last
// body byte.
type readRecord struct {
	kind       readKind
	start, end time.Duration
	fail       string
	miss       bool
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// httpReader runs one closed-loop reader until d has passed since t0:
// each read is sent when the previous one has been read to its last byte.
func (b *bench) httpReader(client *http.Client, seed int64, id int, t0 time.Time, d time.Duration) []readRecord {
	rng := rand.New(rand.NewSource(seed*31 + int64(id) + 1))
	base := "http://" + b.httpSrv.Addr() + "/v1/allocation"
	total := 0
	for _, w := range readMix {
		total += w
	}
	var out []readRecord
	var lastEpoch uint64
	buf := new(bytes.Buffer)
	for time.Since(t0) < d {
		kind := readSnapshot
		for x, k := rng.Intn(total), readKind(0); k < numReadKinds; k++ {
			if x < readMix[k] {
				kind = k
				break
			}
			x -= readMix[k]
		}
		url := base
		name := ""
		switch kind {
		case readAgent:
			var ok bool
			if name, ok = b.mirror.peek(rng.Uint64()); !ok {
				continue
			}
			url += "?agent=" + name
		case readDelta:
			since := lastEpoch - min(lastEpoch, uint64(1+rng.Intn(maxSinceBack)))
			url += fmt.Sprintf("?since=%d", since)
		}
		rec := readRecord{kind: kind, start: time.Since(t0)}
		status, err := get(client, url, buf)
		rec.end = time.Since(t0)
		switch {
		case err != nil:
			rec.fail = err.Error()
		case kind == readAgent && status == http.StatusNotFound:
			rec.miss = true
		case status != http.StatusOK:
			rec.fail = fmt.Sprintf("HTTP %d", status)
		default:
			rec.fail = checkRead(kind, name, buf.Bytes(), &lastEpoch)
		}
		if b.tracer != nil {
			b.emitRead(rec, t0)
		}
		out = append(out, rec)
	}
	return out
}

// get reads one response body into buf.
func get(client *http.Client, url string, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// checkRead decodes a point or delta read and checks it answers what was
// asked; full snapshots are only read here and audited after the phase.
func checkRead(kind readKind, name string, body []byte, lastEpoch *uint64) string {
	switch kind {
	case readAgent:
		var r serve.AgentAllocationResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "decode agent read: " + err.Error()
		}
		if r.Agent.Name != name || len(r.Allocation) != len(capacity) {
			return fmt.Sprintf("agent read for %s answered %s with %d resources", name, r.Agent.Name, len(r.Allocation))
		}
		*lastEpoch = max(*lastEpoch, r.Epoch)
	case readDelta:
		var r serve.DeltaResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "decode delta read: " + err.Error()
		}
		if !r.Complete {
			return fmt.Sprintf("delta since %d incomplete at epoch %d", r.Since, r.Epoch)
		}
		*lastEpoch = max(*lastEpoch, r.Epoch)
	}
	return ""
}

// emitRead records a read as a bench span with the HTTP round trip as
// its child; in a closed loop the two start together.
func (b *bench) emitRead(rec readRecord, t0 time.Time) {
	root := b.tracer.NewID()
	start, dur := t0.Add(rec.start), rec.end-rec.start
	b.tracer.Emit(&obs.Event{Parent: root, Name: "serve.http_" + readNames[rec.kind], Start: start, Dur: dur})
	b.tracer.Emit(&obs.Event{ID: root, Name: "bench.http_read", Start: start, Dur: dur})
}

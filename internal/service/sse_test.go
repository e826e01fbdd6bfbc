package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harl"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames consumes SSE frames from the stream until a frame named stop
// (inclusive) or EOF.
func readFrames(t *testing.T, r *bufio.Reader, stop string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == stop {
					return frames
				}
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func progressFrames(frames []sseFrame) []sseFrame {
	var out []sseFrame
	for _, f := range frames {
		if f.event == "progress" {
			out = append(out, f)
		}
	}
	return out
}

// TestJobEventsReplayThenTail is the buffering seam test: a subscriber that
// connects after events were committed replays them first, then tails live
// ones, and the stream terminates with the finished job.
func TestJobEventsReplayThenTail(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	ft.preEvents = []harl.ProgressEvent{
		{Workload: "w", Wave: 0, TotalTrials: 16, RunBestSeconds: 2e-6},
		{Workload: "w", Wave: 1, TotalTrials: 32, RunBestSeconds: 1e-6},
	}
	ft.postEvents = []harl.ProgressEvent{
		{Workload: "w", Wave: 2, TotalTrials: 48, RunBestSeconds: 5e-7},
	}
	_, out := postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"72,72,72","target":"cpu"}`)
	id := out["job"].(map[string]any)["id"].(string)
	<-ft.started // the two pre-events are committed and buffered

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	replay := readFrames(t, r, "progress") // first frame: replayed event 0
	if len(replay) != 1 || replay[0].id != "0" {
		t.Fatalf("first replayed frame = %+v", replay)
	}
	second := readFrames(t, r, "progress")
	if len(second) != 1 || second[0].id != "1" {
		t.Fatalf("second replayed frame = %+v", second)
	}
	// Release the tuner: the tail event and the done frame arrive live.
	close(ft.release)
	rest := readFrames(t, r, "done")
	pf := progressFrames(rest)
	if len(pf) != 1 || pf[0].id != "2" {
		t.Fatalf("tail frames = %+v", rest)
	}
	doneFrame := rest[len(rest)-1]
	if doneFrame.event != "done" {
		t.Fatalf("stream did not end with done: %+v", rest)
	}
	var job map[string]any
	if err := json.Unmarshal([]byte(doneFrame.data), &job); err != nil {
		t.Fatal(err)
	}
	if job["state"] != string(StateDone) {
		t.Fatalf("done frame job = %v", job)
	}
	var ev ProgressEvent
	if err := json.Unmarshal([]byte(pf[0].data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Wave != 2 || ev.TotalTrials != 48 {
		t.Fatalf("tail event payload = %+v", ev)
	}

	// A late subscriber after completion gets the full replay and the done
	// frame immediately; Last-Event-ID resumes past the replay.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	frames := readFrames(t, bufio.NewReader(resp2.Body), "done")
	pf2 := progressFrames(frames)
	if len(pf2) != 1 || pf2[0].id != "2" {
		t.Fatalf("Last-Event-ID resume frames = %+v", frames)
	}
	waitState(t, q, id, StateDone)

	// Unknown jobs answer 404, not an empty stream.
	resp3, err := http.Get(srv.URL + "/v1/jobs/j999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", resp3.StatusCode)
	}
}

// TestJobEventsCancelledJobEndsStream: cancelling a running job terminates
// its event stream with a done frame carrying the cancelled state.
func TestJobEventsCancelledJobEndsStream(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	_, out := postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"88,88,88","target":"cpu"}`)
	id := out["job"].(map[string]any)["id"].(string)
	<-ft.started
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	frames := readFrames(t, bufio.NewReader(resp.Body), "done")
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("cancelled job stream = %+v", frames)
	}
	var job map[string]any
	if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &job); err != nil {
		t.Fatal(err)
	}
	if job["state"] != string(StateCancelled) {
		t.Fatalf("done frame after cancel = %v", job)
	}
	waitState(t, q, id, StateCancelled)
}

// TestSSEByteIdenticalAcrossWorkers is the acceptance criterion on the wire:
// the same tuning request run with workers=1 and workers=2 (on two identical
// service stacks) streams byte-identical progress frames.
func TestSSEByteIdenticalAcrossWorkers(t *testing.T) {
	stream := func(workers int) []sseFrame {
		q := NewQueue(&HarlTuner{}, 1)
		defer q.Shutdown()
		srv := httptest.NewServer(NewServer(q, nil))
		defer srv.Close()
		body := `{"op":"gemm","shape":"64,64,64","target":"cpu","trials":48,"workers":` +
			map[int]string{1: "1", 2: "2"}[workers] + `}`
		_, out := postJSON(t, srv.URL+"/v1/tune", body)
		id := out["job"].(map[string]any)["id"].(string)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return progressFrames(readFrames(t, bufio.NewReader(resp.Body), "done"))
	}
	one, two := stream(1), stream(2)
	if len(one) == 0 {
		t.Fatal("no progress frames streamed")
	}
	if len(one) != len(two) {
		t.Fatalf("frame counts differ: %d vs %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("frame %d differs across worker counts:\nw1: %+v\nw2: %+v", i, one[i], two[i])
		}
	}
}

// TestPlateauStoppedJobMetrics: a plateau-stopped outcome counts as done,
// increments the plateau counter and renders on /metrics.
func TestPlateauStoppedJobMetrics(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	ft.outcome = &Outcome{Trials: 40, PlateauStopped: true}
	close(ft.release)
	_, out := postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"104,104,104","target":"cpu"}`)
	id := out["job"].(map[string]any)["id"].(string)
	j := waitState(t, q, id, StateDone)
	if j.Outcome == nil || !j.Outcome.PlateauStopped {
		t.Fatalf("outcome = %+v", j.Outcome)
	}
	m := q.Metrics()
	if m.PlateauStopped != 1 || m.Done != 1 || m.Cancelled != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "harl_jobs_plateau_stopped_total 1") {
		t.Fatalf("metrics output lacks plateau counter:\n%s", buf.String())
	}
}

// TestSubmitSnapshotSurvivesEviction is the regression for the 202-body
// race: Submit returns the job snapshot taken under the creating lock hold,
// so a job that finishes and is retention-evicted immediately still renders
// populated to the submitter (a follow-up Get can already miss).
func TestSubmitSnapshotSurvivesEviction(t *testing.T) {
	ft := newFakeTuner()
	close(ft.release) // every session finishes instantly
	q := NewQueue(ft, 1)
	defer q.Shutdown()
	q.mu.Lock()
	q.retain = 0 // evict every finished job immediately
	q.mu.Unlock()

	snap, coalesced, err := q.Submit(Request{Op: "gemm", Shape: "64,64,64", Target: "cpu"})
	if err != nil || coalesced {
		t.Fatalf("submit: coalesced=%v err=%v", coalesced, err)
	}
	if snap.ID == "" || snap.State != StateQueued || snap.Request.Op != "gemm" {
		t.Fatalf("submit snapshot not populated: %+v", snap)
	}
	// The job finishes and is evicted; the snapshot remains valid while Get
	// reports the job gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := q.Get(snap.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job was never evicted at retain=0")
		}
		time.Sleep(time.Millisecond)
	}
	if snap.ID == "" {
		t.Fatal("snapshot lost after eviction")
	}
}

// TestRetentionEvictsOldestFinishedOnly pins the retention walk: lowering
// the bound to 2 with five finished jobs and one running evicts the oldest
// finished jobs in listing order and stops at the one that clears the excess,
// the survivors keep their submission order, and a queued or running job is
// stepped over however old it is.
func TestRetentionEvictsOldestFinishedOnly(t *testing.T) {
	ft := newFakeTuner()
	q := NewQueue(ft, 1)
	defer q.Shutdown()
	submit := func(op string) string {
		t.Helper()
		j, coalesced, err := q.Submit(Request{Op: op, Shape: "64,64,64", Target: "cpu"})
		if err != nil || coalesced {
			t.Fatalf("submit %s: coalesced=%v err=%v", op, coalesced, err)
		}
		return j.ID
	}
	listing := func() string {
		var ops []string
		for _, j := range q.Jobs() {
			ops = append(ops, j.Request.Op+":"+string(j.State))
		}
		return strings.Join(ops, " ")
	}
	submit("run")
	<-ft.started // the one worker is now held by "run"
	for _, op := range []string{"a", "b", "c", "d", "e"} {
		if !q.Cancel(submit(op)) {
			t.Fatalf("queued job %s not cancellable", op)
		}
	}
	queued := submit("wait")
	q.mu.Lock()
	q.retain = 2
	q.mu.Unlock()
	// The sixth finish finds an excess of four: a, b, c and d go, the walk
	// stops there, and e, the queued job and f keep their places behind the
	// running job.
	q.Cancel(submit("f"))
	if got, want := listing(), "run:running e:cancelled wait:queued f:cancelled"; got != want {
		t.Fatalf("after lowering retain to 2:\n got %s\nwant %s", got, want)
	}
	// One more finish, one eviction: the oldest finished job, not the oldest job.
	q.Cancel(queued)
	if got, want := listing(), "run:running wait:cancelled f:cancelled"; got != want {
		t.Fatalf("after one more finish:\n got %s\nwant %s", got, want)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.terminal != 2 || len(q.jobs) != 3 {
		t.Fatalf("terminal=%d jobs=%d, want 2 and 3", q.terminal, len(q.jobs))
	}
}

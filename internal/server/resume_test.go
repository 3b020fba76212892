package server_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestChangefeedResume kills a subscriber mid-stream and reconnects it
// with Last-Event-ID: the spliced sequence (events before the kill +
// events after resume) must be gap-free and byte-identical to what a
// subscriber that never disconnected received. The feed journal in the
// Serving's temp dir is what makes the replay possible.
func TestChangefeedResume(t *testing.T) {
	_, sys := buildSystem(t, 12, 4)
	_, client := startServing(t, sys)

	const (
		firstLeg  = 4 // windows before the kill
		secondLeg = 8 // windows after the kill
		total     = firstLeg + secondLeg
	)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	subscribe := func(lastID string) *http.Response {
		req, err := http.NewRequestWithContext(ctx, "GET", "http://mv/feed/ProblemDept", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("subscribe = %d", resp.StatusCode)
		}
		return resp
	}

	// Witness subscriber: connected for the whole run.
	witness := subscribe("")
	defer witness.Body.Close()

	// Victim subscriber: will be killed after the first leg.
	victim := subscribe("")

	// Each write toggles d000 in or out of the view, so every window
	// carries a real change and therefore emits exactly one event.
	write := func(i int) {
		sal := 9000
		if i%2 == 1 {
			sal = 100
		}
		stmt := fmt.Sprintf(`UPDATE Emp SET Salary = %d WHERE EName = 'e000_00'`, sal)
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < firstLeg; i++ {
		write(i)
	}

	victimEvents := readSSE(t, victim.Body, firstLeg)
	// Kill mid-stream: close the connection abruptly.
	victim.Body.Close()
	lastSeen := victimEvents[len(victimEvents)-1].id

	for i := firstLeg; i < total; i++ {
		write(i)
	}

	// Reconnect with Last-Event-ID; the journal replays the missed
	// windows before any live event.
	resumed := subscribe(fmt.Sprintf("%d", lastSeen))
	defer resumed.Body.Close()
	victimEvents = append(victimEvents, readSSE(t, resumed.Body, total-firstLeg)...)

	witnessEvents := readSSE(t, witness.Body, total)

	// Gap-free, duplicate-free ids on the spliced stream.
	if len(victimEvents) != total {
		t.Fatalf("spliced stream has %d events, want %d", len(victimEvents), total)
	}
	for i, ev := range victimEvents {
		if ev.id != uint64(i+1) {
			t.Fatalf("spliced stream event %d has id %d (gap or duplicate)", i, ev.id)
		}
	}

	// Byte-identical to the never-disconnected witness, including the
	// events the victim got live vs the witness's identical live copies
	// and the replayed middle leg.
	for i := range witnessEvents {
		if victimEvents[i].id != witnessEvents[i].id {
			t.Fatalf("event %d: spliced id %d vs witness id %d",
				i, victimEvents[i].id, witnessEvents[i].id)
		}
		if victimEvents[i].data != witnessEvents[i].data {
			t.Fatalf("event id %d differs between replay and live:\n  replay  %s\n  witness %s",
				victimEvents[i].id, victimEvents[i].data, witnessEvents[i].data)
		}
	}
}

// TestResumeAcrossRestart re-opens the Serving (fresh hub, same feed
// dir) and resumes a subscriber from an id issued by the previous
// incarnation — the journal, not hub memory, is the source of truth.
func TestResumeAcrossRestart(t *testing.T) {
	_, sys := buildSystem(t, 12, 4)
	feedDir := t.TempDir()

	start := func() (*testServing, *http.Client) {
		return startServingDir(t, sys, feedDir)
	}

	sv1, client1 := start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req, _ := http.NewRequestWithContext(ctx, "GET", "http://mv/feed/ProblemDept", nil)
	resp, err := client1.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf(`UPDATE Emp SET Salary = 9000 WHERE EName = 'e%03d_00'`, i)
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	first := readSSE(t, resp.Body, 3)
	resp.Body.Close()
	sv1.shutdown()

	// Second incarnation over the same journal: feed seq continues.
	sv2, client2 := start()
	defer sv2.shutdown()
	for i := 3; i < 5; i++ {
		stmt := fmt.Sprintf(`UPDATE Emp SET Salary = 9000 WHERE EName = 'e%03d_00'`, i)
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	req2, _ := http.NewRequestWithContext(ctx, "GET", "http://mv/feed/ProblemDept", nil)
	req2.Header.Set("Last-Event-ID", fmt.Sprintf("%d", first[len(first)-1].id))
	resp2, err := client2.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := readSSE(t, resp2.Body, 2)
	for i, ev := range rest {
		if ev.id != uint64(4+i) {
			t.Fatalf("post-restart event %d has id %d, want %d", i, ev.id, 4+i)
		}
	}
}

// Serving: the HTTP front-end end to end — a server over an in-memory
// bounded chain, client-signed submits over HTTP with sealed receipts,
// cursor pagination, and a deletion proof fetched through the API once
// a truncation has made the deletion physical. What the front-end costs
// under load is measured by the repo benchmark
// (bash benchmark/run.sh --workload read).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"github.com/seldel/seldel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "serving-example")
	if err := reg.RegisterKey(alice, seldel.RoleUser); err != nil {
		return err
	}

	// A bounded chain: every 3-block sequence beyond the newest two is
	// truncated, so deletions become physical.
	c, err := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
	)
	if err != nil {
		return err
	}
	defer c.Close()

	srv := seldel.NewServer(c, seldel.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := srv.HTTPServer(ln.Addr().String())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", ln.Addr())

	// --- Submit client-signed entries over HTTP, waiting for seals.
	entries := make([]seldel.EntryJSON, 0, 6)
	for i := 0; i < 6; i++ {
		e := seldel.NewData("alice", fmt.Appendf(nil, "reading %d", i)).Sign(alice)
		entries = append(entries, seldel.NewEntryJSON(e))
	}
	var sr seldel.SubmitResponse
	if err := post(base+"/v1/submit?wait=1", seldel.SubmitRequest{Entries: entries}, &sr); err != nil {
		return err
	}
	victim := sr.Sealed[2].Ref.Ref()
	fmt.Printf("sealed %d entries; victim is %s\n", len(sr.Sealed), victim)

	// --- Page through the live entries, 2 per page.
	total, pages := 0, 0
	cursor := ""
	for {
		url := base + "/v1/entries?limit=2"
		if cursor != "" {
			url += "&after=" + cursor
		}
		var page seldel.EntryPage
		if err := get(url, &page); err != nil {
			return err
		}
		total += len(page.Entries)
		pages++
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	fmt.Printf("paged %d entries in %d pages\n", total, pages)

	// --- Delete the victim over HTTP, churn until the marker passes it,
	// then fetch the deletion proof through the API.
	del := seldel.NewDeletion("alice", victim).Sign(alice)
	if err := post(base+"/v1/submit?wait=1", seldel.SubmitRequest{Entries: []seldel.EntryJSON{seldel.NewEntryJSON(del)}}, nil); err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; c.Marker() <= victim.Block; i++ {
		if i > 64 {
			return fmt.Errorf("truncation never executed")
		}
		if _, err := c.SubmitWait(ctx, seldel.NewData("alice", fmt.Appendf(nil, "churn %d", i)).Sign(alice)); err != nil {
			return err
		}
		if err := c.CompactWait(ctx); err != nil {
			return err
		}
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", base, victim.Block, victim.Entry))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prove-deleted: HTTP %d", resp.StatusCode)
	}
	fmt.Printf("deletion of %s proven through the API (marker now %d)\n", victim, c.Marker())
	return nil
}

func post(url string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

package audit

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
)

func setup(t *testing.T) (*chain.Chain, *Logger, map[string]*identity.KeyPair) {
	t.Helper()
	reg := identity.NewRegistry()
	keys := make(map[string]*identity.KeyPair)
	for _, name := range []string{"ALPHA", "BRAVO", "CHARLIE"} {
		kp := identity.Deterministic(name, "audit-test")
		if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
		keys[name] = kp
	}
	c, err := chain.New(chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, NewLogger(c), keys
}

func TestLogAndDecode(t *testing.T) {
	c, logger, keys := setup(t)
	ev := LoginEvent{User: "ALPHA", Terminal: "tty1", Success: true, At: 42}
	ref, err := logger.Log(keys["ALPHA"], ev)
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	entry, _, ok := c.Lookup(ref)
	if !ok {
		t.Fatal("logged entry not found")
	}
	back, err := Decode(entry)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back != ev {
		t.Errorf("decoded %+v, want %+v", back, ev)
	}
	if back.String() != "login ALPHA tty1 ok" {
		t.Errorf("String = %q", back.String())
	}
}

func TestEventStringFail(t *testing.T) {
	ev := LoginEvent{User: "BRAVO", Terminal: "tty9", Success: false}
	if ev.String() != "login BRAVO tty9 fail" {
		t.Errorf("String = %q", ev.String())
	}
}

func TestSchemaValidationRejectsOversizedUser(t *testing.T) {
	_, logger, keys := setup(t)
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'x'
	}
	_, err := logger.EntryFor(keys["ALPHA"], LoginEvent{User: string(long), Terminal: "tty"})
	if !errors.Is(err, ErrSchema) {
		t.Errorf("err = %v, want ErrSchema", err)
	}
}

func TestVerifyAuthenticity(t *testing.T) {
	c, logger, keys := setup(t)
	ref, err := logger.Log(keys["BRAVO"], LoginEvent{User: "BRAVO", Terminal: "tty1", Success: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := logger.VerifyAuthenticity(ref); err != nil {
		t.Errorf("VerifyAuthenticity: %v", err)
	}
	if err := logger.VerifyAuthenticity(block.Ref{Block: 99}); err == nil {
		t.Error("missing ref verified")
	}
	_ = c
}

func TestQueryFilters(t *testing.T) {
	_, logger, keys := setup(t)
	events := []LoginEvent{
		{User: "ALPHA", Terminal: "tty1", Success: true},
		{User: "ALPHA", Terminal: "tty2", Success: false},
		{User: "BRAVO", Terminal: "tty1", Success: false},
		{User: "CHARLIE", Terminal: "tty3", Success: true},
	}
	for _, ev := range events {
		if _, err := logger.Log(keys[ev.User], ev); err != nil {
			t.Fatal(err)
		}
	}
	all, err := logger.Query(QueryOptions{})
	if err != nil || len(all) != 4 {
		t.Fatalf("all = %d, %v", len(all), err)
	}
	alpha, err := logger.Query(QueryOptions{User: "ALPHA"})
	if err != nil || len(alpha) != 2 {
		t.Fatalf("alpha = %d, %v", len(alpha), err)
	}
	failed, err := logger.Query(QueryOptions{FailedOnly: true})
	if err != nil || len(failed) != 2 {
		t.Fatalf("failed = %d, %v", len(failed), err)
	}
	tty1, err := logger.Query(QueryOptions{Terminal: "tty1"})
	if err != nil || len(tty1) != 2 {
		t.Fatalf("tty1 = %d, %v", len(tty1), err)
	}
	both, err := logger.Query(QueryOptions{User: "ALPHA", FailedOnly: true})
	if err != nil || len(both) != 1 {
		t.Fatalf("both = %d, %v", len(both), err)
	}
}

func TestQueryCoversCarriedEntriesAndSkipsMarked(t *testing.T) {
	c, logger, keys := setup(t)
	ref, err := logger.Log(keys["ALPHA"], LoginEvent{User: "ALPHA", Terminal: "tty1", Success: true})
	if err != nil {
		t.Fatal(err)
	}
	bravoRef, err := logger.Log(keys["BRAVO"], LoginEvent{User: "BRAVO", Terminal: "tty1", Success: true})
	if err != nil {
		t.Fatal(err)
	}
	// Drive into a merge so both logins are carried.
	for i := 0; i < 6; i++ {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, loc, ok := c.Lookup(ref); !ok || !loc.Carried {
		t.Fatalf("precondition: entry not carried (ok=%v loc=%+v)", ok, loc)
	}
	hits, err := logger.Query(QueryOptions{})
	if err != nil || len(hits) != 2 {
		t.Fatalf("hits = %d, %v", len(hits), err)
	}
	if !hits[0].Carried {
		t.Error("carried flag not set on summary hit")
	}
	// Mark BRAVO's entry: it must vanish from queries immediately.
	del := block.NewDeletion("BRAVO", bravoRef).Sign(keys["BRAVO"])
	if _, err := c.SubmitWait(context.Background(), del); err != nil {
		t.Fatal(err)
	}
	hits, err = logger.Query(QueryOptions{})
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits after mark = %d, %v", len(hits), err)
	}
	if hits[0].Event.User != "ALPHA" {
		t.Errorf("surviving hit = %+v", hits[0])
	}
}

func TestTemporaryEntryExpires(t *testing.T) {
	c, logger, keys := setup(t)
	entry, err := logger.TemporaryEntryFor(keys["ALPHA"],
		LoginEvent{User: "ALPHA", Terminal: "tty1", Success: true}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := c.SubmitWait(context.Background(), entry)
	if err != nil {
		t.Fatal(err)
	}
	ref := sealed[0].Ref
	for i := 0; i < 10; i++ {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Lookup(ref); ok {
		t.Error("temporary login survived its deadline")
	}
}

// pinnedLogin is the payload of pinnedEvent, as the YAML schema of
// earlier versions encoded it: Figs. 6–8 and every chain written before
// the fixed encoding hold these bytes.
const pinnedLogin = "00000004" +
	"00000002" + "6174" + "06" + "000000000000002a" + // at: timestamp 42
	"00000007" + "73756363657373" + "05" + "01" + // success: bool true
	"00000008" + "7465726d696e616c" + "01" + "00000004" + "74747931" + // terminal: "tty1"
	"00000004" + "75736572" + "01" + "00000005" + "414c504841" // user: "ALPHA"

var pinnedEvent = LoginEvent{User: "ALPHA", Terminal: "tty1", Success: true, At: 42}

func TestLoginEncodingIsPinned(t *testing.T) {
	kp := identity.Deterministic("ALPHA", "audit-test")
	e, err := NewLogger(nil).EntryFor(kp, pinnedEvent)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(e.Payload); got != pinnedLogin {
		t.Fatalf("payload\n got %s\nwant %s", got, pinnedLogin)
	}
	if again := encodeLogin(pinnedEvent); !bytes.Equal(again, e.Payload) {
		t.Error("a second encoding differs from the first")
	}
	ev, err := Decode(e)
	if err != nil || ev != pinnedEvent {
		t.Errorf("Decode = %+v, %v; want %+v", ev, err, pinnedEvent)
	}
	if n := len(encodeLogin(LoginEvent{})); n != loginFixedLen {
		t.Errorf("an empty event encodes to %d bytes, want %d", n, loginFixedLen)
	}
}

// loginWith encodes a login-like payload: count, then each field's
// name, type tag and value as given.
func loginWith(count uint32, fields ...func(*codec.Encoder)) []byte {
	e := codec.NewEncoder(0)
	e.Uint32(count)
	for _, f := range fields {
		f(e)
	}
	return e.Data()
}

func strField(name, v string) func(*codec.Encoder) {
	return func(e *codec.Encoder) { e.String(name); e.Byte(tagString); e.String(v) }
}

func boolField(name string, v bool) func(*codec.Encoder) {
	return func(e *codec.Encoder) { e.String(name); e.Byte(tagBool); e.Bool(v) }
}

func u64Field(name string, tag byte, v uint64) func(*codec.Encoder) {
	return func(e *codec.Encoder) { e.String(name); e.Byte(tag); e.Uint64(v) }
}

func TestDecodeRejectsNonLogin(t *testing.T) {
	kp := identity.Deterministic("x", "audit-test")
	valid := encodeLogin(pinnedEvent)
	at, success := u64Field("at", tagTimestamp, 42), boolField("success", true)
	terminal, user := strField("terminal", "tty1"), strField("user", "ALPHA")
	payloads := map[string][]byte{
		"garbage":          []byte("not a record"),
		"empty":            nil,
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"three fields":     loginWith(3, at, success, terminal),
		"no user":          loginWith(4, at, success, terminal),
		"extra field":      loginWith(5, at, success, terminal, user, strField("zone", "eu")),
		"fields reordered": loginWith(4, at, terminal, success, user),
		"user first":       loginWith(4, user, at, success, terminal),
		"renamed field":    loginWith(4, u64Field("At", tagTimestamp, 42), success, terminal, user),
		"at as uint":       loginWith(4, u64Field("at", 3, 42), success, terminal, user),
		"success as bytes": loginWith(4, at, strField("success", "\x01"), terminal, user),
		"bool byte 2": loginWith(4, at, func(e *codec.Encoder) {
			e.String("success")
			e.Byte(tagBool)
			e.Byte(2)
		}, terminal, user),
	}
	for i := range valid {
		payloads[fmt.Sprintf("truncated to %d", i)] = valid[:i]
	}
	for name, p := range payloads {
		if _, err := Decode(block.NewData("x", p).Sign(kp)); !errors.Is(err, ErrNotLogin) {
			t.Errorf("%s: err = %v, want ErrNotLogin", name, err)
		}
	}
	if _, err := Decode(block.NewDeletion("x", block.Ref{Block: 1}).Sign(kp)); !errors.Is(err, ErrNotLogin) {
		t.Errorf("deletion entry: err = %v, want ErrNotLogin", err)
	}
	if _, err := Decode(block.NewData("x", valid).Sign(kp)); err != nil {
		t.Errorf("the valid payload: %v", err)
	}
}

func TestLoggerSurvivesRetentionCycles(t *testing.T) {
	c, logger, keys := setup(t)
	var refs []block.Ref
	for i := 0; i < 12; i++ {
		ref, err := logger.Log(keys["ALPHA"], LoginEvent{
			User: "ALPHA", Terminal: fmt.Sprintf("tty%d", i), Success: true, At: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// All logins must still be queryable (durable entries survive merges).
	hits, err := logger.Query(QueryOptions{User: "ALPHA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(refs) {
		t.Errorf("hits = %d, want %d", len(hits), len(refs))
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Error(err)
	}
}

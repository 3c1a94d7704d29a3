// Package audit implements the paper's evaluation use case (§II, §V):
// tamper-evident logging of terminal logins to the blockchain, with
// selective deletion once retention ends.
//
// "All logins to a terminal are logged to the blockchain. Therefore, the
// signature of each specific user login is stored in a block. In this
// way, the authentication of the user can be monitored and audited."
//
// The paper's prototype declared the entry structure "beforehand by a
// YAML schema" (§V): its application layer, since the deletion
// mechanism is "independent of a specific block structure". Here the
// login event has one fixed encoding (encodeLogin, decodeLogin).
package audit

import (
	"context"
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
)

// Errors returned by the audit logger.
var (
	ErrSchema   = errors.New("audit: login event exceeds its field bounds")
	ErrNotLogin = errors.New("audit: entry is not a login event")
)

// maxNameLen bounds the user and terminal fields, in bytes.
const maxNameLen = 64

// LoginEvent is one audited terminal login.
type LoginEvent struct {
	User     string
	Terminal string
	Success  bool
	At       uint64
}

// The login payload is a uint32 field count (4), then each field in
// name order as its name, a type tag and its value, in internal/codec's
// primitives. The tags are string 1, bool 5 and timestamp 6.
const (
	tagString    = 1
	tagBool      = 5
	tagTimestamp = 6
	loginFields  = 4
	// loginFixedLen is the payload's length less the user and terminal.
	loginFixedLen = 4 + (4 + len("at") + 1 + 8) + (4 + len("success") + 1 + 1) +
		(4 + len("terminal") + 1 + 4) + (4 + len("user") + 1 + 4)
)

// encodeLogin writes ev's payload.
func encodeLogin(ev LoginEvent) []byte {
	e := codec.NewEncoder(loginFixedLen + len(ev.Terminal) + len(ev.User))
	e.Uint32(loginFields)
	e.String("at")
	e.Byte(tagTimestamp)
	e.Uint64(ev.At)
	e.String("success")
	e.Byte(tagBool)
	e.Bool(ev.Success)
	e.String("terminal")
	e.Byte(tagString)
	e.String(ev.Terminal)
	e.String("user")
	e.Byte(tagString)
	e.String(ev.User)
	return e.Data()
}

// decodeLogin reads the payload encodeLogin writes, and nothing else.
func decodeLogin(p []byte) (LoginEvent, error) {
	var ev LoginEvent
	d := codec.NewDecoder(p)
	if d.Uint32() != loginFields || !readField(d, "at", tagTimestamp) {
		return LoginEvent{}, ErrNotLogin
	}
	ev.At = d.Uint64()
	if !readField(d, "success", tagBool) {
		return LoginEvent{}, ErrNotLogin
	}
	ev.Success = d.Bool()
	if !readField(d, "terminal", tagString) {
		return LoginEvent{}, ErrNotLogin
	}
	ev.Terminal = d.ReadString()
	if !readField(d, "user", tagString) {
		return LoginEvent{}, ErrNotLogin
	}
	ev.User = d.ReadString()
	if d.Finish() != nil {
		return LoginEvent{}, ErrNotLogin
	}
	return ev, nil
}

// readField reads a field's name and type tag and reports whether they
// are name and tag.
func readField(d *codec.Decoder, name string, tag byte) bool {
	return string(d.View()) == name && d.Byte() == tag
}

// checkBounds is the input check of EntryFor and TemporaryEntryFor.
func checkBounds(ev LoginEvent) error {
	if len(ev.User) > maxNameLen || len(ev.Terminal) > maxNameLen {
		return fmt.Errorf("%w: user %d and terminal %d bytes, at most %d each",
			ErrSchema, len(ev.User), len(ev.Terminal), maxNameLen)
	}
	return nil
}

// String renders the event in the console style of Figs. 6–8.
func (ev LoginEvent) String() string {
	status := "ok"
	if !ev.Success {
		status = "fail"
	}
	return fmt.Sprintf("login %s %s %s", ev.User, ev.Terminal, status)
}

// Logger writes signed login events into a selective-deletion chain and
// answers audit queries.
type Logger struct {
	chain *chain.Chain
}

// NewLogger builds a logger over an existing chain.
func NewLogger(c *chain.Chain) *Logger { return &Logger{chain: c} }

// EntryFor builds and signs a login-event entry for the given key. A
// user or terminal longer than 64 bytes is refused with ErrSchema.
func (l *Logger) EntryFor(key *identity.KeyPair, ev LoginEvent) (*block.Entry, error) {
	if err := checkBounds(ev); err != nil {
		return nil, err
	}
	return block.NewData(key.Name(), encodeLogin(ev)).Sign(key), nil
}

// TemporaryEntryFor builds a login entry with a retention deadline: the
// event is automatically forgotten once the chain passes expireTime or
// expireBlock (§IV-D.4, "use cases … include log files of operating
// systems").
func (l *Logger) TemporaryEntryFor(key *identity.KeyPair, ev LoginEvent, expireTime, expireBlock uint64) (*block.Entry, error) {
	if err := checkBounds(ev); err != nil {
		return nil, err
	}
	return block.NewTemporary(key.Name(), encodeLogin(ev), expireTime, expireBlock).Sign(key), nil
}

// Log submits a login event through the chain's submission pipeline,
// waits for it to seal, and returns its stable reference. Concurrent
// loggers share blocks; the returned reference accounts for coalescing.
func (l *Logger) Log(key *identity.KeyPair, ev LoginEvent) (block.Ref, error) {
	return l.LogContext(context.Background(), key, ev)
}

// LogContext is Log with submission and sealing bounded by ctx.
func (l *Logger) LogContext(ctx context.Context, key *identity.KeyPair, ev LoginEvent) (block.Ref, error) {
	entry, err := l.EntryFor(key, ev)
	if err != nil {
		return block.Ref{}, err
	}
	sealed, err := l.chain.SubmitWait(ctx, entry)
	if err != nil {
		return block.Ref{}, err
	}
	return sealed[0].Ref, nil
}

// Decode parses a chain entry back into a login event. Any payload but
// the one EntryFor writes is ErrNotLogin.
func Decode(e *block.Entry) (LoginEvent, error) {
	if e.Kind != block.KindData {
		return LoginEvent{}, ErrNotLogin
	}
	return decodeLogin(e.Payload)
}

// QueryOptions filter audit queries.
type QueryOptions struct {
	// User restricts results to one participant; empty matches all.
	User string
	// Terminal restricts results to one terminal; empty matches all.
	Terminal string
	// FailedOnly keeps only unsuccessful logins.
	FailedOnly bool
}

// Result is one audit hit.
type Result struct {
	Ref   block.Ref
	Event LoginEvent
	// Carried reports whether the event already migrated into a summary
	// block.
	Carried bool
}

// Query streams the live chain for login events matching the options.
// The scan covers normal entries and carried entries in summary blocks;
// it skips entries marked for deletion (they are already "forgotten"
// logically even before physical deletion).
func (l *Logger) Query(opts QueryOptions) ([]Result, error) {
	var out []Result
	appendHit := func(ref block.Ref, e *block.Entry, carried bool) {
		if l.chain.IsMarked(ref) {
			return
		}
		ev, err := Decode(e)
		if err != nil {
			return // foreign entry kind in a mixed chain
		}
		if opts.User != "" && ev.User != opts.User {
			return
		}
		if opts.Terminal != "" && ev.Terminal != opts.Terminal {
			return
		}
		if opts.FailedOnly && ev.Success {
			return
		}
		out = append(out, Result{Ref: ref, Event: ev, Carried: carried})
	}
	for b := range l.chain.BlocksSeq() {
		if b.IsSummary() {
			for _, ce := range b.Carried {
				appendHit(ce.Ref(), ce.Entry, true)
			}
			continue
		}
		for i, e := range b.Entries {
			if e.Kind != block.KindData {
				continue
			}
			appendHit(block.Ref{Block: b.Header.Number, Entry: uint32(i)}, e, false)
		}
	}
	return out, nil
}

// VerifyAuthenticity re-checks the signature of the login event at ref
// against the registry, through the chain's verifier — the audit
// property of §II ("it is mandatory that the authenticity of the log
// files is given").
func (l *Logger) VerifyAuthenticity(ref block.Ref) error {
	e, _, ok := l.chain.Lookup(ref)
	if !ok {
		return fmt.Errorf("audit: %w", chain.ErrNotFound)
	}
	return l.chain.Verifier().VerifySigner(l.chain.Registry(), e.Owner, e.SigningBytes(), e.Signature)
}

// Package audit implements the paper's evaluation use case (§II, §V):
// tamper-evident logging of terminal logins to the blockchain, with
// selective deletion once retention ends.
//
// "All logins to a terminal are logged to the blockchain. Therefore, the
// signature of each specific user login is stored in a block. In this
// way, the authentication of the user can be monitored and audited."
package audit

import (
	"context"
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/schema"
)

// LoginSchemaYAML is the YAML schema declaring the login-event entry
// structure ("the structure of a data entry is specified beforehand by a
// YAML schema", §V).
const LoginSchemaYAML = `
name: login_event
doc: "terminal login audit record"
fields:
  - name: user
    type: string
    required: true
    max_length: 64
  - name: terminal
    type: string
    required: true
    max_length: 64
  - name: success
    type: bool
  - name: at
    type: timestamp
`

// Errors returned by the audit logger.
var (
	ErrSchema   = errors.New("audit: record does not match login schema")
	ErrNotLogin = errors.New("audit: entry is not a login event")
)

// LoginEvent is one audited terminal login.
type LoginEvent struct {
	User     string
	Terminal string
	Success  bool
	At       uint64
}

// Record converts the event to a schema record.
func (ev LoginEvent) Record() schema.Record {
	return schema.Record{
		"user":     schema.String(ev.User),
		"terminal": schema.String(ev.Terminal),
		"success":  schema.Bool(ev.Success),
		"at":       schema.Timestamp(ev.At),
	}
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
	chain  *chain.Chain
	schema *schema.Schema
}

// NewLogger builds a logger over an existing chain.
func NewLogger(c *chain.Chain) (*Logger, error) {
	s, err := schema.Parse(LoginSchemaYAML)
	if err != nil {
		return nil, fmt.Errorf("audit: parse login schema: %w", err)
	}
	return &Logger{chain: c, schema: s}, nil
}

// Schema returns the compiled login-event schema.
func (l *Logger) Schema() *schema.Schema { return l.schema }

// EntryFor builds and signs a login-event entry for the given key. The
// record is validated against the schema before signing.
func (l *Logger) EntryFor(key *identity.KeyPair, ev LoginEvent) (*block.Entry, error) {
	rec := ev.Record()
	if err := l.schema.Validate(rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	return block.NewData(key.Name(), rec.Encode()).Sign(key), nil
}

// TemporaryEntryFor builds a login entry with a retention deadline: the
// event is automatically forgotten once the chain passes expireTime or
// expireBlock (§IV-D.4, "use cases … include log files of operating
// systems").
func (l *Logger) TemporaryEntryFor(key *identity.KeyPair, ev LoginEvent, expireTime, expireBlock uint64) (*block.Entry, error) {
	rec := ev.Record()
	if err := l.schema.Validate(rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	return block.NewTemporary(key.Name(), rec.Encode(), expireTime, expireBlock).Sign(key), nil
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

// Decode parses a chain entry back into a login event.
func Decode(e *block.Entry) (LoginEvent, error) {
	var ev LoginEvent
	if e.Kind != block.KindData {
		return ev, ErrNotLogin
	}
	rec, err := schema.DecodeRecord(e.Payload)
	if err != nil {
		return ev, fmt.Errorf("%w: %v", ErrNotLogin, err)
	}
	user, ok := rec["user"]
	if !ok || user.Type != schema.TypeString {
		return ev, ErrNotLogin
	}
	terminal, ok := rec["terminal"]
	if !ok || terminal.Type != schema.TypeString {
		return ev, ErrNotLogin
	}
	ev.User = user.Str
	ev.Terminal = terminal.Str
	if v, ok := rec["success"]; ok && v.Type == schema.TypeBool {
		ev.Success = v.Flag
	}
	if v, ok := rec["at"]; ok && v.Type == schema.TypeTimestamp {
		ev.At = v.U64
	}
	return ev, nil
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

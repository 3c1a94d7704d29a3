package chain

import (
	"fmt"
	"io"
	"unicode/utf8"

	"github.com/seldel/seldel/internal/block"
)

// RenderOptions controls the console rendering of the chain, which
// mirrors the prototype output of the paper's evaluation (Figs. 6–8):
// one line per block with "block number; timestamp; previous block hash;
// own block hash", entry lines with "D" (data record), "K" (user), and
// "S" (signature), and summary blocks prefixed with "S".
type RenderOptions struct {
	// PayloadText renders a data payload; defaults to a printable-string
	// heuristic (UTF-8 text as-is, binary as hex).
	PayloadText func([]byte) string
	// HideMarker suppresses the leading "m -> <block>" marker line.
	HideMarker bool
	// ShowMarks annotates entries that carry an active deletion mark.
	ShowMarks bool
}

func defaultPayloadText(p []byte) string {
	if len(p) == 0 {
		return "-"
	}
	if utf8.Valid(p) {
		printable := true
		for _, r := range string(p) {
			if r < 0x20 && r != '\t' {
				printable = false
				break
			}
		}
		if printable {
			return string(p)
		}
	}
	return fmt.Sprintf("0x%x", p)
}

// sigShort abbreviates a signature like the paper's simplified output.
func sigShort(sig []byte) string {
	if len(sig) == 0 {
		return "-"
	}
	const n = 5
	s := fmt.Sprintf("%X", sig)
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// Render writes the live chain in the paper's console format.
func (c *Chain) Render(w io.Writer, opts *RenderOptions) error {
	var o RenderOptions
	if opts != nil {
		o = *opts
	}
	if o.PayloadText == nil {
		o.PayloadText = defaultPayloadText
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	if !o.HideMarker {
		if _, err := fmt.Fprintf(w, "m -> %d\n", c.marker); err != nil {
			return err
		}
	}
	for _, b := range c.blocks {
		if err := c.renderBlock(w, b, &o); err != nil {
			return err
		}
	}
	return nil
}

func (c *Chain) renderBlock(w io.Writer, b *block.Block, o *RenderOptions) error {
	prefix := ""
	if b.IsSummary() {
		prefix = "S"
	}
	if _, err := fmt.Fprintf(w, "%s%d; t%d; %s; %s\n",
		prefix, b.Header.Number, b.Header.Time, b.Header.PrevHash.Short(), b.Hash().Short()); err != nil {
		return err
	}
	if b.IsSummary() {
		for _, ce := range b.Carried {
			mark := ""
			if o.ShowMarks {
				if _, ok := c.marks[ce.Ref()]; ok {
					mark = " *marked*"
				}
			}
			if _, err := fmt.Fprintf(w, "  %d/%d@t%d: D %s K %s S %s%s\n",
				ce.OriginBlock, ce.EntryNumber, ce.OriginTime,
				o.PayloadText(ce.Entry.Payload), ce.Entry.Owner, sigShort(ce.Entry.Signature), mark); err != nil {
				return err
			}
		}
		if b.SeqRef != nil {
			if _, err := fmt.Fprintf(w, "  ref w[%d..%d] %s\n",
				b.SeqRef.FirstBlock, b.SeqRef.LastBlock, b.SeqRef.Root.Short()); err != nil {
				return err
			}
		}
		return nil
	}
	for i, e := range b.Entries {
		switch e.Kind {
		case block.KindDeletion:
			if _, err := fmt.Fprintf(w, "  %d: DEL %s K %s S %s\n",
				i, e.Target, e.Owner, sigShort(e.Signature)); err != nil {
				return err
			}
		default:
			mark := ""
			if o.ShowMarks {
				ref := block.Ref{Block: b.Header.Number, Entry: uint32(i)}
				if _, ok := c.marks[ref]; ok {
					mark = " *marked*"
				}
			}
			ttl := ""
			if e.IsTemporary() {
				switch {
				case e.ExpireTime != 0 && e.ExpireBlock != 0:
					ttl = fmt.Sprintf(" T t%d/a%d", e.ExpireTime, e.ExpireBlock)
				case e.ExpireTime != 0:
					ttl = fmt.Sprintf(" T t%d", e.ExpireTime)
				default:
					ttl = fmt.Sprintf(" T a%d", e.ExpireBlock)
				}
			}
			if _, err := fmt.Fprintf(w, "  %d: D %s K %s S %s%s%s\n",
				i, o.PayloadText(e.Payload), e.Owner, sigShort(e.Signature), ttl, mark); err != nil {
				return err
			}
		}
	}
	return nil
}

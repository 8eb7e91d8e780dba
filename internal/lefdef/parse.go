package lefdef

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// tokenizer splits a LEF/DEF stream into whitespace-separated tokens,
// treating parentheses as standalone tokens (DEF surrounds them with
// whitespace anyway, but inputs from other tools may not). It reads the
// input once and scans it in place: every token is a substring of src, so
// names the parsers keep point into the input.
//
// Its tokens must equal those of the oracle in oracle_test.go on every
// input (FuzzTokenizer): "#" starts a comment that runs to the next "\n"
// and ends any token it touches; "(" and ")" are tokens of their own;
// whitespace is exactly unicode.IsSpace, as strings.Fields applies it;
// bytes of invalid UTF-8 are token bytes.
type tokenizer struct {
	src string
	off int    // byte offset where the scan after tok resumes
	tok string // the next token; "" once the input is exhausted
	pos int    // tokens consumed, reported by expect
}

// newTokenizer reads r once into a builder grown to r's size when r reports
// one, so the input is neither regrown nor copied again into a string.
func newTokenizer(r io.Reader) (*tokenizer, error) {
	var sb strings.Builder
	if n := readerSize(r); n > 0 {
		sb.Grow(n)
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	t := &tokenizer{src: sb.String()}
	t.scan()
	return t, nil
}

// readerSize is the byte count r reports, by Len (strings.Reader,
// bytes.Reader, bytes.Buffer) or, for a file, by Stat; 0 when it reports
// none.
func readerSize(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Len() int }:
		return v.Len()
	case *os.File:
		if fi, err := v.Stat(); err == nil {
			return int(fi.Size())
		}
	}
	return 0
}

// Byte classes of the scanner. Bytes of multi-byte runes are classed
// byteRune and decoded, since a few (U+0085, U+00A0, U+2000–U+200A, ...)
// are whitespace.
const (
	byteToken = iota
	byteSpace
	byteParen
	byteComment
	byteRune
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = byteSpace
	}
	c['('], c[')'], c['#'] = byteParen, byteParen, byteComment
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = byteRune
	}
	return c
}()

// spaceAt decodes the rune at s[i] and returns its byte width and whether
// it is whitespace. Decoding from the first byte of each multi-byte run, as
// strings.Fields does, splits invalid UTF-8 the same way.
func spaceAt(s string, i int) (n int, space bool) {
	r, n := utf8.DecodeRuneInString(s[i:])
	return n, unicode.IsSpace(r)
}

// scan moves tok to the token that starts at or after off.
func (t *tokenizer) scan() {
	s, i := t.src, t.off
	for i < len(s) {
		switch byteClass[s[i]] {
		case byteSpace:
			i++
			continue
		case byteComment:
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				i += j + 1
			} else {
				i = len(s)
			}
			continue
		case byteRune:
			if n, space := spaceAt(s, i); space {
				i += n
				continue
			}
		case byteParen:
			t.tok, t.off = s[i:i+1], i+1
			return
		}
		break
	}
	start := i
	for i < len(s) {
		c := byteClass[s[i]]
		if c == byteToken {
			i++
			continue
		}
		if c == byteRune {
			if n, space := spaceAt(s, i); !space {
				i += n
				continue
			}
		}
		break
	}
	t.tok, t.off = s[start:i], i
}

func (t *tokenizer) done() bool { return t.tok == "" }

func (t *tokenizer) next() (string, error) {
	if t.done() {
		return "", io.ErrUnexpectedEOF
	}
	tok := t.tok
	t.pos++
	t.scan()
	return tok, nil
}

func (t *tokenizer) peek() string { return t.tok }

// expect consumes the next token and verifies it.
func (t *tokenizer) expect(want string) error {
	got, err := t.next()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("lefdef: expected %q, got %q (token %d)", want, got, t.pos)
	}
	return nil
}

func (t *tokenizer) nextInt() (int, error) {
	tok, err := t.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("lefdef: expected integer, got %q", tok)
	}
	return v, nil
}

func (t *tokenizer) nextFloat() (float64, error) {
	tok, err := t.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("lefdef: expected number, got %q", tok)
	}
	return v, nil
}

// skipStatement consumes tokens through the next ";".
func (t *tokenizer) skipStatement() error {
	for {
		tok, err := t.next()
		if err != nil {
			return err
		}
		if tok == ";" {
			return nil
		}
	}
}

// ParseLEF reads the technology and macro library from the subset emitted
// by WriteLEF. Unknown statements inside known sections are skipped, so
// mildly richer LEF files still parse.
func ParseLEF(r io.Reader) (*tech.Tech, []*db.Macro, error) {
	tk, err := newTokenizer(r)
	if err != nil {
		return nil, nil, err
	}
	t := &tech.Tech{Name: "lef", Node: "lef"}
	var macros []*db.Macro
	dbu := 1000 // default when UNITS precedes nothing
	toDBU := func(v float64) int { return int(math.Round(v * float64(dbu))) }
	toDBUArea := func(v float64) int { return int(math.Round(v * float64(dbu) * float64(dbu))) }

	for !tk.done() {
		tok, _ := tk.next()
		switch tok {
		case "VERSION", "BUSBITCHARS", "DIVIDERCHAR":
			if err := tk.skipStatement(); err != nil {
				return nil, nil, err
			}
		case "UNITS":
			for tk.peek() != "END" {
				f, err := tk.next()
				if err != nil {
					return nil, nil, err
				}
				if f == "DATABASE" {
					if err := tk.expect("MICRONS"); err != nil {
						return nil, nil, err
					}
					if dbu, err = tk.nextInt(); err != nil {
						return nil, nil, err
					}
					if err := tk.expect(";"); err != nil {
						return nil, nil, err
					}
				}
			}
			tk.next() // END
			tk.next() // UNITS
			t.DBU = dbu
		case "LAYER":
			l, err := parseLayer(tk, toDBU, toDBUArea)
			if err != nil {
				return nil, nil, err
			}
			l.Index = len(t.Layers)
			t.Layers = append(t.Layers, l)
		case "VIA":
			v, err := parseVia(tk, t, toDBU)
			if err != nil {
				return nil, nil, err
			}
			t.Vias = append(t.Vias, v)
		case "SITE":
			s, err := parseSite(tk, toDBU)
			if err != nil {
				return nil, nil, err
			}
			t.Site = s
		case "MACRO":
			m, err := parseMacro(tk, t, toDBU)
			if err != nil {
				return nil, nil, err
			}
			macros = append(macros, m)
		case "END":
			tk.next() // LIBRARY
		default:
			return nil, nil, fmt.Errorf("lefdef: unexpected top-level token %q", tok)
		}
	}
	if t.DBU == 0 {
		t.DBU = dbu
	}
	if err := t.Validate(); err != nil {
		return nil, nil, fmt.Errorf("lefdef: parsed tech invalid: %w", err)
	}
	return t, macros, nil
}

func parseLayer(tk *tokenizer, toDBU, toDBUArea func(float64) int) (tech.Layer, error) {
	var l tech.Layer
	name, err := tk.next()
	if err != nil {
		return l, err
	}
	l.Name = name
	for {
		tok, err := tk.next()
		if err != nil {
			return l, err
		}
		switch tok {
		case "END":
			if _, err := tk.next(); err != nil { // layer name
				return l, err
			}
			return l, nil
		case "TYPE":
			if err := tk.skipStatement(); err != nil {
				return l, err
			}
		case "DIRECTION":
			d, err := tk.next()
			if err != nil {
				return l, err
			}
			if d == "VERTICAL" {
				l.Dir = tech.Vertical
			} else {
				l.Dir = tech.Horizontal
			}
			if err := tk.expect(";"); err != nil {
				return l, err
			}
		case "PITCH", "WIDTH", "SPACING", "OFFSET":
			v, err := tk.nextFloat()
			if err != nil {
				return l, err
			}
			switch tok {
			case "PITCH":
				l.Pitch = toDBU(v)
			case "WIDTH":
				l.Width = toDBU(v)
			case "SPACING":
				l.Spacing = toDBU(v)
			case "OFFSET":
				l.Offset = toDBU(v)
			}
			if err := tk.expect(";"); err != nil {
				return l, err
			}
		case "AREA":
			v, err := tk.nextFloat()
			if err != nil {
				return l, err
			}
			l.MinArea = toDBUArea(v)
			if err := tk.expect(";"); err != nil {
				return l, err
			}
		default:
			if err := tk.skipStatement(); err != nil {
				return l, err
			}
		}
	}
}

func parseVia(tk *tokenizer, t *tech.Tech, toDBU func(float64) int) (tech.ViaRule, error) {
	var v tech.ViaRule
	name, err := tk.next()
	if err != nil {
		return v, err
	}
	v.Name = name
	if tk.peek() == "DEFAULT" {
		tk.next()
	}
	for {
		tok, err := tk.next()
		if err != nil {
			return v, err
		}
		switch tok {
		case "END":
			if _, err := tk.next(); err != nil {
				return v, err
			}
			return v, nil
		case "LAYERBELOW":
			ln, err := tk.next()
			if err != nil {
				return v, err
			}
			found := false
			for _, l := range t.Layers {
				if l.Name == ln {
					v.Below = l.Index
					found = true
				}
			}
			if !found {
				return v, fmt.Errorf("lefdef: via %s references unknown layer %q", v.Name, ln)
			}
			if err := tk.expect(";"); err != nil {
				return v, err
			}
		case "CUTSIZE":
			f, err := tk.nextFloat()
			if err != nil {
				return v, err
			}
			v.CutSize = toDBU(f)
			if err := tk.expect(";"); err != nil {
				return v, err
			}
		default:
			if err := tk.skipStatement(); err != nil {
				return v, err
			}
		}
	}
}

func parseSite(tk *tokenizer, toDBU func(float64) int) (tech.Site, error) {
	var s tech.Site
	name, err := tk.next()
	if err != nil {
		return s, err
	}
	s.Name = name
	for {
		tok, err := tk.next()
		if err != nil {
			return s, err
		}
		switch tok {
		case "END":
			if _, err := tk.next(); err != nil {
				return s, err
			}
			return s, nil
		case "SIZE":
			w, err := tk.nextFloat()
			if err != nil {
				return s, err
			}
			if err := tk.expect("BY"); err != nil {
				return s, err
			}
			h, err := tk.nextFloat()
			if err != nil {
				return s, err
			}
			s.Width, s.Height = toDBU(w), toDBU(h)
			if err := tk.expect(";"); err != nil {
				return s, err
			}
		default:
			if err := tk.skipStatement(); err != nil {
				return s, err
			}
		}
	}
}

func parseMacro(tk *tokenizer, t *tech.Tech, toDBU func(float64) int) (*db.Macro, error) {
	m := &db.Macro{}
	name, err := tk.next()
	if err != nil {
		return nil, err
	}
	m.Name = name
	for {
		tok, err := tk.next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case "END":
			end, err := tk.next()
			if err != nil {
				return nil, err
			}
			if end != m.Name {
				return nil, fmt.Errorf("lefdef: MACRO %s terminated by END %s", m.Name, end)
			}
			return m, nil
		case "SIZE":
			w, err := tk.nextFloat()
			if err != nil {
				return nil, err
			}
			if err := tk.expect("BY"); err != nil {
				return nil, err
			}
			h, err := tk.nextFloat()
			if err != nil {
				return nil, err
			}
			m.Width, m.Height = toDBU(w), toDBU(h)
			if err := tk.expect(";"); err != nil {
				return nil, err
			}
		case "PIN":
			p, err := parsePin(tk, t, toDBU)
			if err != nil {
				return nil, err
			}
			m.Pins = append(m.Pins, p)
		default:
			if err := tk.skipStatement(); err != nil {
				return nil, err
			}
		}
	}
}

func parsePin(tk *tokenizer, t *tech.Tech, toDBU func(float64) int) (db.PinDef, error) {
	var p db.PinDef
	name, err := tk.next()
	if err != nil {
		return p, err
	}
	p.Name = name
	for {
		tok, err := tk.next()
		if err != nil {
			return p, err
		}
		switch tok {
		case "END":
			end, err := tk.next()
			if err != nil {
				return p, err
			}
			if end != p.Name {
				return p, fmt.Errorf("lefdef: PIN %s terminated by END %s", p.Name, end)
			}
			return p, nil
		case "PORT":
			// PORT ... END block.
			for {
				ptok, err := tk.next()
				if err != nil {
					return p, err
				}
				if ptok == "END" {
					break
				}
				switch ptok {
				case "LAYER":
					ln, err := tk.next()
					if err != nil {
						return p, err
					}
					if l, ok := t.LayerByName(ln); ok {
						p.Layer = l.Index
					}
					if err := tk.expect(";"); err != nil {
						return p, err
					}
				case "POINT":
					x, err := tk.nextFloat()
					if err != nil {
						return p, err
					}
					y, err := tk.nextFloat()
					if err != nil {
						return p, err
					}
					p.Offset = geom.Pt(toDBU(x), toDBU(y))
					if err := tk.expect(";"); err != nil {
						return p, err
					}
				default:
					if err := tk.skipStatement(); err != nil {
						return p, err
					}
				}
			}
		default:
			if err := tk.skipStatement(); err != nil {
				return p, err
			}
		}
	}
}

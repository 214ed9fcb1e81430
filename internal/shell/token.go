// Package shell implements a small interactive command language over the
// engine: CREATE TABLE / CREATE PARTIAL INDEX / INSERT / SELECT with
// equality and BETWEEN predicates / SHOW introspection. It exists so the
// system can be explored by hand (cmd/aibshell) — watching queries
// switch from scans to skips as the Index Buffer builds — and it doubles
// as an integration surface exercised by its own test suite.
package shell

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/storage"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokWord   tokenKind = iota // bare identifier or keyword
	tokNumber                  // integer literal
	tokString                  // 'quoted string'
	tokPunct                   // single punctuation: ( ) , = *
)

// token is one lexed element.
type token struct {
	kind tokenKind
	text string // keywords are case-folded to upper; strings are unquoted
}

// lex splits a command line into tokens. Strings use single quotes with
// ” as the escape for a literal quote, as in SQL.
func lex(line string) ([]token, error) {
	var out []token
	i := 0
	rs := []rune(line)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < len(rs) {
				if rs[i] == '\'' {
					if i+1 < len(rs) && rs[i+1] == '\'' { // escaped quote
						sb.WriteRune('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteRune(rs[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("unterminated string literal")
			}
			out = append(out, token{kind: tokString, text: sb.String()})
		case strings.ContainsRune("(),=*;", r):
			if r != ';' { // statement terminator is optional noise
				out = append(out, token{kind: tokPunct, text: string(r)})
			}
			i++
		case r == '-' || unicode.IsDigit(r):
			start := i
			i++
			for i < len(rs) && unicode.IsDigit(rs[i]) {
				i++
			}
			text := string(rs[start:i])
			if text == "-" {
				return nil, fmt.Errorf("stray '-'")
			}
			out = append(out, token{kind: tokNumber, text: text})
		case unicode.IsLetter(r) || r == '_':
			start := i
			for i < len(rs) && (unicode.IsLetter(rs[i]) || unicode.IsDigit(rs[i]) || rs[i] == '_' || rs[i] == '.') {
				i++
			}
			out = append(out, token{kind: tokWord, text: strings.ToUpper(string(rs[start:i]))})
		default:
			return nil, fmt.Errorf("unexpected character %q", r)
		}
	}
	return out, nil
}

// parser is a cursor over tokens with convenience expectations.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() (token, bool) {
	if p.done() {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, error) {
	if p.done() {
		return token{}, fmt.Errorf("unexpected end of command")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

// word consumes the next token, requiring the given keyword.
func (p *parser) word(kw string) error {
	t, err := p.next()
	if err != nil {
		return fmt.Errorf("expected %s: %w", kw, err)
	}
	if t.kind != tokWord || t.text != kw {
		return fmt.Errorf("expected %s, got %q", kw, t.text)
	}
	return nil
}

// punct consumes the next token, requiring the given punctuation.
func (p *parser) punct(s string) error {
	t, err := p.next()
	if err != nil {
		return fmt.Errorf("expected %q: %w", s, err)
	}
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("expected %q, got %q", s, t.text)
	}
	return nil
}

// ident consumes an identifier (any word), returned lowercased for use
// as a table/column name.
func (p *parser) ident() (string, error) {
	t, err := p.next()
	if err != nil {
		return "", fmt.Errorf("expected identifier: %w", err)
	}
	if t.kind != tokWord {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	return strings.ToLower(t.text), nil
}

// literal consumes a number or string literal as a storage value.
func (p *parser) literal() (storage.Value, error) {
	t, err := p.next()
	if err != nil {
		return storage.Value{}, err
	}
	return value(t)
}

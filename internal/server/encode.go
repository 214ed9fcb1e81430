package server

import (
	"strconv"
	"unicode/utf8"
)

// appendResponse appends r's response line — the bytes json.Marshal(r)
// produces, then '\n' — to b. Every field is a bool, an int or a string,
// so the encoding cannot fail. FuzzAppendResponse pins the equality.
func appendResponse(b []byte, r response) []byte {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = appendField(b, `,"output":`, r.Output)
	if r.Rows != 0 {
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, int64(r.Rows), 10)
	}
	b = appendField(b, `,"code":`, r.Code)
	b = appendField(b, `,"error":`, r.Error)
	b = appendField(b, `,"trace":`, r.Trace)
	return append(b, '}', '\n')
}

// appendField appends an omitempty string field: key, then the quoted
// value, or nothing for "".
func appendField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// jsonSafe marks the bytes encoding/json copies into a string verbatim
// under its default HTML escaping: printable ASCII except '"', '\\',
// '<', '>' and '&'. Control bytes and those five are escaped; bytes
// from 0x80 up start a UTF-8 sequence, decoded on their own path.
var jsonSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes a string: the short
// escapes for '"', '\\', \b, \f, \n, \r and \t, \u00XX for the other
// control bytes and for '<', '>' and '&', \u2028 and \u2029 for the
// two JavaScript line terminators, and \ufffd for each byte of invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

package cminus

// LexAll tokenizes the whole source, for the lexer's tests and the
// external fuzz targets; the parser pulls tokens from a Lexer one at a
// time.
func LexAll(src string) ([]Tok, error) {
	l := NewLexer(src)
	var toks []Tok
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

package thesaurus

// Porter stemmer (M.F. Porter, "An algorithm for suffix stripping",
// Program 14(3), 1980). Cupid's linguistic matcher stems name tokens before
// thesaurus lookup so that morphological variants (Lines/Line,
// Shipping/Ship) compare equal. This is a faithful implementation of the
// original five-step algorithm over lower-case ASCII words; non-ASCII input
// is returned unchanged.

// Stem returns the Porter stem of the given lower-case word.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return word // digits, symbols, non-ASCII: leave unstemmed
		}
	}
	// The steps never lengthen the word, so a short word is stemmed in a
	// stack buffer, and a stem that is a prefix of the word (the common
	// case: plain suffix stripping) is returned as a substring of it:
	// most words stem without allocating.
	var buf [32]byte
	w := append(buf[:0], word...)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if len(w) <= len(word) && string(w) == word[:len(w)] {
		return word[:len(w)]
	}
	return string(w)
}

func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	}
	return true
}

// measure computes m, the number of VC sequences in w[:end].
func measure(w []byte, end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && isConsonant(w, i) {
		i++
	}
	for i < end {
		// in a vowel run
		for i < end && !isConsonant(w, i) {
			i++
		}
		if i >= end {
			break
		}
		m++
		for i < end && isConsonant(w, i) {
			i++
		}
	}
	return m
}

func containsVowel(w []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w[:end] ends with a double consonant.
func endsDoubleConsonant(w []byte, end int) bool {
	if end < 2 {
		return false
	}
	return w[end-1] == w[end-2] && isConsonant(w, end-1)
}

// endsCVC reports whether w[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x, or y.
func endsCVC(w []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isConsonant(w, end-3) || isConsonant(w, end-2) || !isConsonant(w, end-1) {
		return false
	}
	switch w[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether w ends in the (non-empty) suffix s; the last
// byte is compared first, which rejects most of the rule lists' suffixes
// without a full comparison.
func hasSuffix(w []byte, s string) bool {
	n := len(w) - len(s)
	return n >= 0 && w[len(w)-1] == s[len(s)-1] && string(w[n:]) == s
}

// replaceSuffix replaces suffix s with r when measure of the stem part
// satisfies cond; returns the new word and whether a rule fired.
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stemEnd := len(w) - len(s)
	if measure(w, stemEnd) <= minM {
		return w, true // suffix matched but condition failed: stop rule group
	}
	return append(w[:stemEnd], r...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w, len(w)-3) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	fired := false
	if hasSuffix(w, "ed") && containsVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		fired = true
	} else if hasSuffix(w, "ing") && containsVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w, len(w)):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
	case measure(w, len(w)) == 1 && endsCVC(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, rule := range step2Rules {
		if hasSuffix(w, rule.s) {
			nw, _ := replaceSuffix(w, rule.s, rule.r, 0)
			return nw
		}
	}
	return w
}

var step3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, rule := range step3Rules {
		if hasSuffix(w, rule.s) {
			nw, _ := replaceSuffix(w, rule.s, rule.r, 0)
			return nw
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stemEnd := len(w) - len(s)
		if measure(w, stemEnd) > 1 {
			return w[:stemEnd]
		}
		return w
	}
	// (m>1 and (*S or *T)) ION ->
	if hasSuffix(w, "ion") {
		stemEnd := len(w) - 3
		if stemEnd > 0 && measure(w, stemEnd) > 1 &&
			(w[stemEnd-1] == 's' || w[stemEnd-1] == 't') {
			return w[:stemEnd]
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stemEnd := len(w) - 1
	m := measure(w, stemEnd)
	if m > 1 || (m == 1 && !endsCVC(w, stemEnd)) {
		return w[:stemEnd]
	}
	return w
}

func step5b(w []byte) []byte {
	if hasSuffix(w, "ll") && measure(w, len(w)) > 1 {
		return w[:len(w)-1]
	}
	return w
}

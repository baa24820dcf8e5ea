//! Phonetic encoding: American Soundex, the phonetic measure in the
//! py_stringmatching toolkit this crate mirrors. Useful for the paper's M3
//! hint ("matched by comparing the individuals involved"): person names
//! recorded by different clerks often differ in spelling but not in sound.

/// Encodes one word with American Soundex: the first letter followed by
/// three digits. Non-ASCII-alphabetic characters are skipped; an input with
/// no letters encodes to `None`.
///
/// Standard rules: adjacent same-coded letters collapse; `H`/`W` are
/// transparent between same-coded letters; vowels (and `Y`) separate codes.
pub fn soundex(word: &str) -> Option<String> {
    soundex_code(word).map(|code| String::from_utf8(code.to_vec()).expect("ASCII by construction"))
}

/// [`soundex`] as its four ASCII bytes, without allocating — what a cache
/// stores per distinct word.
pub fn soundex_code(word: &str) -> Option<[u8; 4]> {
    fn code(c: u8) -> u8 {
        match c {
            b'B' | b'F' | b'P' | b'V' => b'1',
            b'C' | b'G' | b'J' | b'K' | b'Q' | b'S' | b'X' | b'Z' => b'2',
            b'D' | b'T' => b'3',
            b'L' => b'4',
            b'M' | b'N' => b'5',
            b'R' => b'6',
            _ => 0, // vowels, H, W, Y
        }
    }
    let mut letters =
        word.chars().filter(|c| c.is_ascii_alphabetic()).map(|c| c.to_ascii_uppercase() as u8);
    let first = letters.next()?;
    let (mut out, mut len) = ([first, b'0', b'0', b'0'], 1);
    let mut last_code = code(first);
    for c in letters {
        let k = code(c);
        if k != 0 && k != last_code {
            out[len] = k;
            len += 1;
            if len == 4 {
                break;
            }
        }
        // H and W do not reset the previous code; vowels and Y do.
        if !(c == b'H' || c == b'W') {
            last_code = k;
        }
    }
    Some(out)
}

/// 0/1 similarity: do the two words share a Soundex code? Inputs with no
/// letters score 0 against everything (including each other — no phonetic
/// evidence either way).
pub fn soundex_sim(a: &str, b: &str) -> f64 {
    match (soundex(a), soundex(b)) {
        (Some(x), Some(y)) if x == y => 1.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_examples() {
        // The canonical National Archives examples.
        assert_eq!(soundex("Washington").as_deref(), Some("W252"));
        assert_eq!(soundex("Robert").as_deref(), Some("R163"));
        assert_eq!(soundex("Rupert").as_deref(), Some("R163"));
        assert_eq!(soundex("Ashcraft").as_deref(), Some("A261"));
        assert_eq!(soundex("Ashcroft").as_deref(), Some("A261"));
        assert_eq!(soundex("Tymczak").as_deref(), Some("T522"));
        assert_eq!(soundex("Pfister").as_deref(), Some("P236"));
    }

    #[test]
    fn double_letters_collapse() {
        assert_eq!(soundex("Gutierrez").as_deref(), Some("G362"));
        assert_eq!(soundex("Jackson").as_deref(), Some("J250"));
    }

    #[test]
    fn short_names_zero_padded() {
        assert_eq!(soundex("Lee").as_deref(), Some("L000"));
        assert_eq!(soundex("Wu").as_deref(), Some("W000"));
    }

    #[test]
    fn case_and_punctuation_insensitive() {
        assert_eq!(soundex("o'brien"), soundex("OBrien"));
        assert_eq!(soundex("SMITH"), soundex("smith"));
    }

    #[test]
    fn empty_and_nonletter_inputs() {
        assert_eq!(soundex(""), None);
        assert_eq!(soundex("123"), None);
        assert_eq!(soundex_sim("", ""), 0.0);
    }

    #[test]
    fn sim_matches_homophones() {
        assert_eq!(soundex_sim("Smith", "Smyth"), 1.0);
        assert_eq!(soundex_sim("Robert", "Rupert"), 1.0);
        assert_eq!(soundex_sim("Smith", "Jones"), 0.0);
    }

    #[test]
    fn first_letter_preserved_even_when_vowel() {
        assert_eq!(soundex("Euler").as_deref(), Some("E460"));
        assert_eq!(soundex("Ellery").as_deref(), Some("E460"));
    }
}

//! Cell normalization and tokenization shared by the indexer, the SQL
//! engine's string comparisons, and the embedding encoder.

use std::borrow::Cow;

/// Normalize a raw cell string: trim, lowercase, collapse whitespace runs to
/// a single space.
///
/// Returns a borrowed slice when the input is already normalized, avoiding an
/// allocation on the (common) clean-data path.
pub fn normalize_cow(s: &str) -> Cow<'_, str> {
    match is_normalized(s) {
        true => Cow::Borrowed(s),
        false => Cow::Owned(normalize_in(s, &mut String::new()).to_owned()),
    }
}

/// [`normalize_cow`] with the owned form written into `buf` (cleared
/// first): `s` itself when it is already normalized, `buf` otherwise.
pub fn normalize_in<'a>(s: &'a str, buf: &'a mut String) -> &'a str {
    if is_normalized(s) {
        return s;
    }
    buf.clear();
    let mut last_space = false;
    for c in s.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                buf.push(' ');
                last_space = true;
            }
        } else {
            last_space = false;
            buf.push(c.to_ascii_lowercase());
        }
    }
    buf
}

/// True when `s` is trimmed, has no ASCII uppercase, and no whitespace but
/// single spaces.
fn is_normalized(s: &str) -> bool {
    let trimmed = s.trim();
    trimmed.len() == s.len()
        && !trimmed.contains("  ")
        && !(trimmed.chars()).any(|c| c.is_ascii_uppercase() || c.is_whitespace() && c != ' ')
}

/// Owned convenience wrapper over [`normalize_cow`].
pub fn normalize(s: &str) -> String {
    normalize_cow(s).into_owned()
}

/// Split a normalized cell into word tokens (alphanumeric runs).
pub fn tokens(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Character trigrams of a token, used by the embedding encoder to give
/// lexically close values nearby vectors.
pub fn trigrams(token: &str) -> Vec<String> {
    let chars: Vec<char> = token.chars().collect();
    if chars.len() < 3 {
        return vec![token.to_string()];
    }
    chars.windows(3).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_borrows_when_clean() {
        assert!(matches!(normalize_cow("already clean"), Cow::Borrowed(_)));
        assert!(matches!(normalize_cow("Needs Work"), Cow::Owned(_)));
    }

    #[test]
    fn normalize_collapses_whitespace_and_case() {
        assert_eq!(normalize("  Tom \t Riddle\n"), "tom riddle");
        assert_eq!(normalize("HR"), "hr");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn normalize_preserves_non_ascii() {
        assert_eq!(normalize("Universität  Hannover"), "universität hannover");
    }

    #[test]
    fn tokens_split_on_punctuation() {
        let ts: Vec<&str> = tokens("new-york city, ny 2024").collect();
        assert_eq!(ts, vec!["new", "york", "city", "ny", "2024"]);
    }

    #[test]
    fn trigrams_of_short_tokens_are_the_token() {
        assert_eq!(trigrams("ab"), vec!["ab".to_string()]);
        assert_eq!(trigrams("abcd"), vec!["abc".to_string(), "bcd".to_string()]);
    }

    #[test]
    fn normalize_idempotent() {
        let once = normalize("  A  B ");
        assert_eq!(normalize(&once), once);
    }
}

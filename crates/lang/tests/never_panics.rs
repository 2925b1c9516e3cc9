//! Property test: the front end never unwinds.
//!
//! Source text comes from outside the program, so whatever it holds,
//! `parse` answers `Ok` or a `SnetError::Parse` with a position in the
//! text, and `compile_ast` on whatever parsed answers `Ok` or an error —
//! over arbitrary strings, over soup drawn from the language's own
//! alphabet, and over a few random character edits of valid programs
//! (where most of the interesting failures live: an unbalanced bracket,
//! half an operator, a keyword where a label should be).
//!
//! Unbounded nesting depth is not exercised here; the mutations keep the
//! depth of the program they start from.

use proptest::prelude::*;
use snet_core::{BoxOutput, Record, SnetError, Work};
use snet_lang::{compile_ast, parse, BoxRegistry};

/// `benchmark/`'s routing net: best-match dispatch, an index split, a
/// filter with a tag assignment and a guarded star.
const ROUTE_STREAM: &str = "net route_stream {
    box fromA ((a) -> (x));
    box fromB ((b) -> (x));
    box inc ((x) -> (x));
} connect
    (fromA | fromB) .. (inc ! <k>)
    .. ([ {<n>} -> {<n -= 1>} ] .. inc) * {<n> == 0}
";

/// The merger of the paper's Fig 3: a synchrocell inside a guarded star.
const MERGER: &str = "net merger {
    box init ((chunk, <fst>) -> (pic));
    box merge ((chunk, pic) -> (pic));
} connect
    ( ( init .. [ {} -> {<cnt = 1>} ] ) | [] )
    .. ( [| {pic}, {chunk} |]
         .. ( ( merge .. [ {<cnt>} -> {<cnt += 1>} ] ) | [] )
       ) * {<tasks> == <cnt>}
";

/// Placement, both kinds, a guarded pattern, a two-template filter, a
/// rename and a conditional tag expression.
const PLACED: &str = "net placed {
    box solve ((scene, sect, <node>) -> (chunk, <node>));
    box show ((pic) -> ());
} connect
    ( ( solve .. [ {chunk, <node>, <node> >= 0} -> {chunk}; {<node>} ] )!@<node> | [] )
    .. [ {chunk} -> {pic = chunk, <big = (<node> > 3 ? 1 : 0)>} ] .. show@2
";

const PROGRAMS: [&str; 3] = [ROUTE_STREAM, MERGER, PLACED];

/// What an edit may put in: the language's punctuation, letters that
/// make and break keywords, digits, white space, and a few characters
/// the lexer has no token for.
const ALPHABET: &[char] = &[
    '(', ')', '[', ']', '{', '}', '<', '>', '|', '.', ',', ';', '-', '=', '+', '*', '!', '@', '?',
    ':', '/', '%', '&', 'a', 'x', 'n', 'e', 't', 'b', 'o', 'i', 'f', '_', '0', '9', ' ', '\n', '#',
    '"', '\\', '\0', 'é', '→',
];

/// The programs' boxes, and the two one-letter names soup can spell.
fn registry() -> BoxRegistry {
    let mut reg = BoxRegistry::new();
    for name in [
        "fromA", "fromB", "inc", "init", "merge", "solve", "show", "a", "x",
    ] {
        reg.register(name, |r: &Record| Ok(BoxOutput::one(r.clone(), Work::ZERO)));
    }
    reg
}

/// Parses and, if that worked, compiles; `Err` names what went wrong
/// with the front end itself (a panic, or a parse error that points
/// nowhere), never what is wrong with `src`.
fn front_end_holds(src: &str) -> Result<(), String> {
    let run = std::panic::catch_unwind(|| match parse(src) {
        Ok(prog) => {
            let _ = compile_ast(&prog, &registry());
            Ok(())
        }
        Err(SnetError::Parse { line, col, .. }) if line >= 1 && col >= 1 => Ok(()),
        Err(other) => Err(format!("parse answered {other:?}")),
    });
    run.unwrap_or_else(|_| Err("the front end panicked".to_owned()))
        .map_err(|what| format!("{what} on {src:?}"))
}

/// One edit: what to do (replace, insert, delete), where (scaled to the
/// text's length) and with which character of `ALPHABET`.
fn arb_edit() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..3, 0usize..10_000, 0usize..ALPHABET.len())
}

fn edited(src: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for &(kind, at, with) in edits {
        let at = at * (chars.len() + 1) / 10_000;
        match kind {
            0 if at < chars.len() => chars[at] = ALPHABET[with],
            1 => chars.insert(at, ALPHABET[with]),
            _ if at < chars.len() => drop(chars.remove(at)),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

#[test]
fn the_programs_being_edited_are_valid() {
    for src in PROGRAMS {
        let prog = parse(src).unwrap_or_else(|e| panic!("{e} in {src}"));
        compile_ast(&prog, &registry()).unwrap_or_else(|e| panic!("{e} in {src}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn edited_programs_parse_or_are_refused(
        which in 0usize..PROGRAMS.len(),
        edits in prop::collection::vec(arb_edit(), 1..7),
    ) {
        let src = edited(PROGRAMS[which], &edits);
        let held = front_end_holds(&src);
        prop_assert!(held.is_ok(), "{}", held.unwrap_err());
    }

    #[test]
    fn arbitrary_text_parses_or_is_refused(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
        soup in prop::collection::vec(0usize..ALPHABET.len(), 0..60),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let soup: String = soup.into_iter().map(|i| ALPHABET[i]).collect();
        for src in [text, soup] {
            let held = front_end_holds(&src);
            prop_assert!(held.is_ok(), "{}", held.unwrap_err());
        }
    }
}

//! The front end's error messages, pinned: one malformed program per
//! lexical, syntax and type message family, each with the exact
//! `Diagnostic` text it must produce. Several rows put non-ASCII text
//! (in a comment, a text literal or a character literal) before the
//! error on the same line, so columns keep counting characters, not
//! bytes.

use m3gc::frontend::compile_to_ir;

/// (what, source, expected `Diagnostic` display).
const ROWS: &[(&str, &str, &str)] = &[
    // ---- lexical ----
    (
        "bad character",
        "MODULE M; VAR x: INTEGER; BEGIN x := 1 ? 2; END M.",
        "lexical error at 1:40: unexpected character `?`",
    ),
    (
        "non-ASCII character outside a literal",
        "MODULE M;\nVAR x: INTEGER;\nBEGIN\n  x := 1;\n  é := 2;\nEND M.",
        "lexical error at 5:3: unexpected character `é`",
    ),
    (
        "unterminated comment",
        "MODULE M; (* open (* nested *) BEGIN END M.",
        "lexical error at 1:44: unterminated comment",
    ),
    (
        "unterminated character literal",
        "MODULE M; VAR c: CHAR; BEGIN c := 'ab'; END M.",
        "lexical error at 1:38: unterminated character literal",
    ),
    (
        "character literal at end of input",
        "MODULE M; VAR c: CHAR; BEGIN c := '",
        "lexical error at 1:36: unterminated character literal",
    ),
    (
        "unterminated text literal",
        "MODULE M;\nTYPE S = REF ARRAY OF CHAR;\nVAR s: S;\nBEGIN s := \"abc",
        "lexical error at 4:16: unterminated text literal",
    ),
    (
        "overflowing literal",
        "MODULE M; VAR x: INTEGER; BEGIN x := 9223372036854775808; END M.",
        "lexical error at 1:38: integer literal overflows",
    ),
    (
        "bad escape in a character literal",
        "MODULE M; VAR c: CHAR; BEGIN c := '\\q'; END M.",
        "lexical error at 1:38: bad escape in character literal",
    ),
    (
        "bad escape in a text literal",
        "MODULE M; TYPE S = REF ARRAY OF CHAR; VAR s: S; BEGIN s := \"a\\qb\"; END M.",
        "lexical error at 1:64: bad escape in text literal",
    ),
    (
        "bad character after a non-ASCII comment",
        "MODULE M; VAR x: INTEGER; BEGIN (* é → ü *) x := 1 $ 2; END M.",
        "lexical error at 1:52: unexpected character `$`",
    ),
    (
        "bad character after a non-ASCII text literal",
        "MODULE M; TYPE S = REF ARRAY OF CHAR; VAR s: S; BEGIN s := \"é→\"; s := @; END M.",
        "lexical error at 1:71: unexpected character `@`",
    ),
    (
        "bad escape after a non-ASCII character literal",
        "MODULE M; VAR c: CHAR; BEGIN c := 'é'; c := '\\z'; END M.",
        "lexical error at 1:48: bad escape in character literal",
    ),
    // ---- syntax ----
    (
        "expected a token",
        "MODULE M BEGIN END M.",
        "syntax error at 1:10: expected `;`, found `BEGIN`",
    ),
    (
        "expected an identifier",
        "MODULE 3; BEGIN END M.",
        "syntax error at 1:8: expected identifier, found 3",
    ),
    (
        "expected a type",
        "MODULE M; VAR x: 5; BEGIN END M.",
        "syntax error at 1:18: expected a type, found 5",
    ),
    (
        "expected an expression",
        "MODULE M; VAR x: INTEGER; BEGIN x := ; END M.",
        "syntax error at 1:38: expected an expression, found `;`",
    ),
    (
        "expected a statement",
        "MODULE M; BEGIN THEN END M.",
        "syntax error at 1:17: expected a statement, found `THEN`",
    ),
    (
        "designator without assignment",
        "MODULE M; VAR x: INTEGER; BEGIN x; END M.",
        "syntax error at 1:33: expected `:=` or a call statement",
    ),
    (
        "mismatched procedure END name",
        "MODULE M;\nPROCEDURE P() =\nBEGIN\nEND Q;\nBEGIN END M.",
        "syntax error at 2:11: procedure `P` ends with mismatched name `Q`",
    ),
    (
        "mismatched module END name",
        "MODULE M; BEGIN END N.",
        "syntax error at 1:22: module `M` ends with mismatched name `N`",
    ),
    (
        "record field list",
        "MODULE M; TYPE R = REF RECORD a: INTEGER b: INTEGER END; BEGIN END M.",
        "syntax error at 1:42: expected `;` or END, found identifier `b`",
    ),
    (
        "expected a declaration",
        "MODULE M; x := 1; BEGIN END M.",
        "syntax error at 1:11: expected a declaration or BEGIN, found identifier `x`",
    ),
    (
        "expected a token after a non-ASCII text literal",
        "MODULE M; TYPE S = REF ARRAY OF CHAR; VAR s: S; BEGIN s := \"→→\" END M.",
        "syntax error at 1:65: expected `;`, found `END`",
    ),
    (
        "character literal where a type belongs",
        "MODULE M; VAR c: 'x'; BEGIN END M.",
        "syntax error at 1:18: expected a type, found character literal 120",
    ),
    (
        "text literal where an identifier belongs",
        "MODULE \"M\"; BEGIN END M.",
        "syntax error at 1:8: expected identifier, found text literal",
    ),
    // ---- type ----
    (
        "unknown name",
        "MODULE M; VAR x: INTEGER; BEGIN x := y; END M.",
        "type error at 1:38: unknown name `y`",
    ),
    (
        "unknown type",
        "MODULE M; VAR x: Foo; BEGIN END M.",
        "type error at 1:18: unknown type `Foo`",
    ),
    (
        "unknown field",
        "MODULE M; TYPE R = REF RECORD a: INTEGER END; VAR r: R; BEGIN r.b := 1; END M.",
        "type error at 1:64: no field `b`",
    ),
    (
        "field of a non-record",
        "MODULE M; VAR x: INTEGER; BEGIN x.f := 1; END M.",
        "type error at 1:34: `.f` applied to non-record INTEGER",
    ),
    (
        "unknown procedure",
        "MODULE M; BEGIN Frob(1); END M.",
        "type error at 1:17: unknown procedure `Frob`",
    ),
    (
        "procedure arity",
        "MODULE M;\nPROCEDURE P(a, b: INTEGER) = BEGIN END P;\nBEGIN P(1); END M.",
        "type error at 3:7: `P` expects 2 argument(s), got 1",
    ),
    (
        "builtin arity",
        "MODULE M; BEGIN PutInt(1, 2); END M.",
        "type error at 1:17: `PutInt` expects 1 argument(s), got 2",
    ),
    (
        "VAR argument that is not a designator",
        "MODULE M;\nPROCEDURE P(VAR a: INTEGER) = BEGIN END P;\nBEGIN P(1 + 2); END M.",
        "type error at 3:11: VAR argument must be a designator",
    ),
    (
        "VAR argument of the wrong type",
        "MODULE M;\nPROCEDURE P(VAR a: INTEGER) = BEGIN END P;\nVAR c: CHAR;\nBEGIN P(c); END M.",
        "type error at 4:9: VAR argument type CHAR does not match formal INTEGER",
    ),
    (
        "argument not assignable",
        "MODULE M;\nPROCEDURE P(a: INTEGER) = BEGIN END P;\nBEGIN P(TRUE); END M.",
        "type error at 3:9: argument type BOOLEAN not assignable to formal INTEGER",
    ),
    (
        "assignment of the wrong type",
        "MODULE M; TYPE A = REF ARRAY [1..3] OF INTEGER; VAR a: A; x: INTEGER; BEGIN x := a; END M.",
        "type error at 1:77: cannot assign REF ARRAY [1..3] OF INTEGER to INTEGER",
    ),
    (
        "unknown name after a non-ASCII comment",
        "MODULE M; VAR x: INTEGER; BEGIN (* “é” → *) x := zz; END M.",
        "type error at 1:50: unknown name `zz`",
    ),
    (
        "unknown field after a non-ASCII character literal",
        "MODULE M; TYPE R = REF RECORD c: CHAR END; VAR r: R; BEGIN r.c := 'é'; r.d := 'ü'; END M.",
        "type error at 1:73: no field `d`",
    ),
];

#[test]
fn every_message_family_is_pinned() {
    let mut mismatches = Vec::new();
    for (what, src, expected) in ROWS {
        let actual = match compile_to_ir(src) {
            Ok(_) => "(compiled)".to_string(),
            Err(d) => d.to_string(),
        };
        if actual != *expected {
            mismatches.push(format!("{what}:\n    expected {expected:?}\n    actual   {actual:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} row(s) differ:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

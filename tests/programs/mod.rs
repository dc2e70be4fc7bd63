//! The paper's four benchmark programs (§6), rewritten in Mini-M3:
//! `typereg` (type registration with structural equivalence),
//! `FieldList` (shell command parsing), `takl` (Takeuchi over lists) and
//! `destroy` (tree build/replace, gc-intensive). Every test that runs the
//! published programs reads them from here.

/// The paper's programs, as (name, Mini-M3 source).
pub const PAPER: [(&str, &str); 4] = [
    ("typereg", include_str!("typereg.m3")),
    ("FieldList", include_str!("fieldlist.m3")),
    ("takl", include_str!("takl.m3")),
    ("destroy", include_str!("destroy.m3")),
];

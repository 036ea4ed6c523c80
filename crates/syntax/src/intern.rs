//! Global string interner: `Symbol` is a 4-byte handle to a deduplicated,
//! process-lifetime string.
//!
//! Identifiers dominate the AST's string traffic (names, fields, labels,
//! typedefs), and the old `String`-per-node representation paid an
//! allocation plus a full byte compare at every lookup. A [`Symbol`] is
//! `Copy`, compares in one instruction, and hashes as a `u32`.
//!
//! Two invariants matter for correctness:
//!
//! - **Ids are not stable across processes.** Anything persisted (cache
//!   fingerprints, dep digests) must hash the symbol's *text* — use
//!   [`Symbol::text_hash`] (precomputed FNV-1a of the string, computed once
//!   at intern time) or [`Symbol::as_str`], never the raw id.
//! - **Ordering is by string, not id.** `Ord` compares resolved text, so
//!   `BTreeSet<Symbol>` iterates in the same order in every process and
//!   deterministic output needs no extra sorting step.
//!
//! Storage is append-only and leaked (`&'static str`), so `as_str` hands
//! out references without holding a lock.

use crate::fx::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    strings: Vec<&'static str>,
    hashes: Vec<u64>,
    map: FxHashMap<&'static str, u32>,
    /// Total bytes of distinct interned text (leaked storage footprint).
    bytes: usize,
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Interner {
    fn new() -> Self {
        let mut it = Interner {
            strings: Vec::new(),
            hashes: Vec::new(),
            map: FxHashMap::default(),
            bytes: 0,
        };
        // Pre-intern names the checker tests against constantly, so their
        // ids are process-constant and available via the `sym` shorthands.
        for s in ["", "NULL", "malloc", "free", "assert", "size_t", "FILE", "main"] {
            it.intern(s);
        }
        it
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.bytes += leaked.len();
        let id = self.strings.len() as u32;
        self.strings.push(leaked);
        self.hashes.push(fnv1a(leaked));
        self.map.insert(leaked, id);
        id
    }
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Interner::new()))
}

impl Symbol {
    /// Interns `s`, returning its handle (idempotent).
    pub fn intern(s: &str) -> Symbol {
        // Fast path: already interned (read lock only).
        if let Some(&id) = global().read().expect("interner poisoned").map.get(s) {
            return Symbol(id);
        }
        Symbol(global().write().expect("interner poisoned").intern(s))
    }

    /// The interned text. Leaked storage, so no lock is held by the result.
    pub fn as_str(self) -> &'static str {
        global().read().expect("interner poisoned").strings[self.0 as usize]
    }

    /// FNV-1a 64 of the text, precomputed at intern time. Stable across
    /// processes — safe to fold into persisted fingerprints (the raw id is
    /// not).
    pub fn text_hash(self) -> u64 {
        global().read().expect("interner poisoned").hashes[self.0 as usize]
    }

    /// The raw id (for arena statistics; never persist it).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Number of distinct strings interned so far (for `--stats`).
pub fn symbol_count() -> usize {
    global().read().expect("interner poisoned").strings.len()
}

/// Total bytes of distinct interned text so far. Together with
/// [`symbol_count`] this exposes interner growth: a long-lived analysis
/// server re-checking edited-then-reverted content must hold both steady.
pub fn interned_bytes() -> usize {
    global().read().expect("interner poisoned").bytes
}

/// Shorthands for the pre-interned names: `sym::null_const()` etc.
pub mod sym {
    use super::Symbol;

    /// The empty string.
    pub fn empty() -> Symbol {
        Symbol(0)
    }
    /// `NULL`
    pub fn null_const() -> Symbol {
        Symbol(1)
    }
    /// `malloc`
    pub fn malloc() -> Symbol {
        Symbol(2)
    }
    /// `free`
    pub fn free() -> Symbol {
        Symbol(3)
    }
    /// `assert`
    pub fn assert() -> Symbol {
        Symbol(4)
    }
    /// `size_t`
    pub fn size_t() -> Symbol {
        Symbol(5)
    }
    /// `FILE`
    pub fn file_t() -> Symbol {
        Symbol(6)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    /// String order, not id order: keeps `BTreeSet<Symbol>` iteration (and
    /// everything hashed or printed from it) identical across processes.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:?}", self.as_str())
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_resolves() {
        let a = Symbol::intern("hello_intern_test");
        let b = Symbol::intern("hello_intern_test");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello_intern_test");
        assert_eq!(a, "hello_intern_test");
    }

    #[test]
    fn preinterned_shorthands() {
        assert_eq!(sym::null_const(), Symbol::intern("NULL"));
        assert_eq!(sym::malloc(), Symbol::intern("malloc"));
        assert_eq!(sym::free(), Symbol::intern("free"));
        assert_eq!(sym::assert(), Symbol::intern("assert"));
        assert_eq!(sym::size_t(), Symbol::intern("size_t"));
        assert_eq!(sym::file_t(), Symbol::intern("FILE"));
    }

    #[test]
    fn order_is_textual() {
        // Intern in reverse-alphabetical order; Ord must still be textual.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
        let set: std::collections::BTreeSet<Symbol> = [z, a].into_iter().collect();
        let names: Vec<&str> = set.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["aaa_order_test", "zzz_order_test"]);
    }

    #[test]
    fn text_hash_matches_fnv_of_text() {
        let s = Symbol::intern("hash_probe");
        assert_eq!(s.text_hash(), super::fnv1a("hash_probe"));
        assert_ne!(s.text_hash(), Symbol::intern("hash_probe2").text_hash());
    }
}

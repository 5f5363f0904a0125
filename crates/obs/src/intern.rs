//! The collector's actor-name table.
//!
//! Every recorded event carries the name of the actor that saw it, and a
//! run repeats a few names millions of times. An [`Interner`] maps each
//! distinct name to a dense `u32` [`Sym`] exactly once; after the first
//! sighting, re-interning allocates nothing. Interning order is
//! deterministic — the same sequence of `intern` calls yields the same
//! symbols — and a symbol never leaves the collector that made it: it is
//! resolved back to the name whenever a record is lent out.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-rotate hasher (the FxHash construction) for the
/// interner's table. Actor names are program-chosen, never adversarial
/// input, so trading SipHash's flood-resistance for a few-instruction hash
/// is free speed on the collector's record path.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// An interned string: a dense index into one [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Sym(u32);

impl Sym {
    /// The raw index (dense, starting at 0 in interning order).
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many hot-entry cache slots the interner keeps (power of two).
const CACHE_SLOTS: usize = 32;

/// One hot-entry cache slot: the *address and length* of a recently
/// interned `&str`, and the symbol it mapped to. `addr == 0` marks an
/// empty slot (a live `&str` is never null). The address is stored as a
/// plain `usize` — it is never dereferenced, only compared — so the
/// interner stays `Send`/`Sync`-clean and a stale address can at worst
/// miss, never corrupt.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    addr: usize,
    len: usize,
    sym: Sym,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    addr: 0,
    len: 0,
    sym: Sym(0),
};

/// A deterministic string-to-symbol table.
///
/// Strings are stored once; `intern` allocates only on the first sighting
/// of a string, and `resolve` is an array index.
///
/// The record path re-interns the same few actor names millions of times,
/// and even a fast string hash plus table probe costs more than the work
/// around it. A tiny direct-mapped cache keyed on the argument's address
/// short-circuits that: on a hit the only work is an equality memcmp
/// against the interned bytes. The memcmp makes the cache sound — if an
/// address was reused for different text, the bytes differ and the slow
/// path runs — and the symbol an intern call returns never depends on
/// cache state, so determinism is untouched.
#[derive(Debug, Clone)]
pub(crate) struct Interner {
    lookup: HashMap<Box<str>, Sym, BuildHasherDefault<FxHasher>>,
    strings: Vec<Box<str>>,
    cache: [CacheSlot; CACHE_SLOTS],
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            lookup: HashMap::default(),
            strings: Vec::new(),
            cache: [EMPTY_SLOT; CACHE_SLOTS],
        }
    }
}

#[inline]
fn cache_index(addr: usize, len: usize) -> usize {
    // Fibonacci hash of the address: string literals sit a few bytes apart
    // in rodata, so low-bit shifts alone would pile neighbours into one
    // slot. The multiply spreads those close addresses across the table.
    let mixed = ((addr ^ len) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 59) as usize & (CACHE_SLOTS - 1)
}

impl Interner {
    /// An empty interner.
    pub(crate) fn new() -> Self {
        Interner::default()
    }

    /// The symbol for `s`, allocating one if this is its first sighting.
    #[inline]
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        let addr = s.as_ptr() as usize;
        let idx = cache_index(addr, s.len());
        let slot = self.cache[idx];
        if slot.addr == addr
            && slot.len == s.len()
            && self.strings[slot.sym.index()].as_bytes() == s.as_bytes()
        {
            return slot.sym;
        }
        let sym = self.intern_slow(s);
        self.cache[idx] = CacheSlot {
            addr,
            len: s.len(),
            sym,
        };
        sym
    }

    fn intern_slow(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("interner overflow"));
        self.strings.push(s.into());
        self.lookup.insert(self.strings[sym.index()].clone(), sym);
        sym
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// If `sym` did not come from this interner (index out of range); a
    /// symbol from a *different* interner with an in-range index resolves
    /// to the wrong string, which is why symbols never leave the collector.
    #[inline]
    pub(crate) fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("schedd");
        let b = i.intern("startd");
        assert_eq!(i.intern("schedd"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        // A copy of the text at another address is the same name.
        assert_eq!(i.intern(&String::from("startd")), b);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("attempt_cpu_us");
        assert_eq!(i.resolve(s), "attempt_cpu_us");
    }

    #[test]
    fn interning_order_determines_symbols() {
        let mut x = Interner::new();
        let mut y = Interner::new();
        for s in ["a", "b", "c", "a", "b"] {
            assert_eq!(x.intern(s), y.intern(s));
        }
    }

    #[test]
    fn clone_preserves_mapping() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let mut j = i.clone();
        assert_eq!(j.resolve(a), "x");
        assert_eq!(j.intern("x"), a);
    }
}

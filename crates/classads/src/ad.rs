//! The ClassAd itself: a set of named attribute expressions.
//!
//! "The requests and requirements of both parties are expressed in a unique
//! language known as ClassAds, and forwarded to a central matchmaker" (§2.1
//! of the paper). An ad maps case-insensitive attribute names to
//! expressions; well-known attributes like `Requirements` and `Rank` drive
//! matchmaking.
//!
//! An ad may be *chained* to one shared parent ([`ClassAd::chained`], after
//! HTCondor's `ChainToAd`, which is how a cluster's procs share one ad):
//! it holds only what tells it apart, and every reader — lookup, iteration,
//! printing, equality, the interpreter, the compiler — sees the flattened
//! ad, the ad's own attributes shadowing the parent's.

use crate::ast::Expr;
use crate::parser::{parse_ad_pairs, ParseError};
use crate::value::Value;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::iter::Peekable;
use std::sync::Arc;

// Keyed by lower-case name; value keeps the display spelling plus the
// expression, and insertion order is not semantic (BTreeMap gives
// deterministic iteration).
type Attrs = BTreeMap<String, (String, Expr)>;

/// A classified advertisement.
#[derive(Debug, Clone, Default)]
pub struct ClassAd {
    attrs: Attrs,
    // The ad this one inherits from; never itself chained.
    parent: Option<Arc<ClassAd>>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// An empty ad chained to `parent`: it reads as a copy of the parent
    /// until attributes of its own shadow the parent's.
    ///
    /// # Panics
    /// If `parent` is itself chained — chains are one level deep.
    pub fn chained(parent: Arc<ClassAd>) -> Self {
        assert!(
            parent.parent.is_none(),
            "a parent may not itself be chained"
        );
        ClassAd {
            attrs: Attrs::new(),
            parent: Some(parent),
        }
    }

    /// The ad this one is chained to, if any.
    pub fn parent(&self) -> Option<&Arc<ClassAd>> {
        self.parent.as_ref()
    }

    /// Parse an ad from `[ name = expr; … ]` syntax. Later duplicates of a
    /// name override earlier ones.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let mut ad = ClassAd::new();
        for (name, expr) in parse_ad_pairs(input)? {
            ad.insert_expr(name, expr);
        }
        Ok(ad)
    }

    /// Insert an attribute given its expression.
    pub fn insert_expr(&mut self, name: impl Into<String>, expr: Expr) -> &mut Self {
        let display = name.into();
        self.attrs
            .insert(display.to_ascii_lowercase(), (display, expr));
        self
    }

    /// Insert a literal value.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        self.insert_expr(name, Expr::Lit(value))
    }

    /// Builder-style attribute with a literal integer.
    pub fn with_int(mut self, name: &str, v: i64) -> Self {
        self.insert(name, Value::Int(v));
        self
    }

    /// Builder-style attribute with a literal real.
    pub fn with_real(mut self, name: &str, v: f64) -> Self {
        self.insert(name, Value::Real(v));
        self
    }

    /// Builder-style attribute with a literal string.
    pub fn with_str(mut self, name: &str, v: &str) -> Self {
        self.insert(name, Value::str(v));
        self
    }

    /// Builder-style attribute with a literal boolean.
    pub fn with_bool(mut self, name: &str, v: bool) -> Self {
        self.insert(name, Value::Bool(v));
        self
    }

    /// Builder-style attribute from expression source text.
    ///
    /// # Panics
    /// On unparseable source — builder use is for literals in code, where a
    /// parse failure is a programming error.
    pub fn with_expr(mut self, name: &str, src: &str) -> Self {
        let e = crate::parser::parse_expr(src)
            .unwrap_or_else(|err| panic!("bad expression for {name}: {err}"));
        self.insert_expr(name, e);
        self
    }

    fn entry(&self, lc_name: &str) -> Option<&(String, Expr)> {
        let inherited = || self.parent.as_ref()?.attrs.get(lc_name);
        self.attrs.get(lc_name).or_else(inherited)
    }

    /// Look up an attribute's expression by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&Expr> {
        self.entry(&name.to_ascii_lowercase()).map(|(_, e)| e)
    }

    /// Remove an attribute. Returns whether it was present. Removing an
    /// inherited attribute unchains the ad first (it becomes the flat copy
    /// of itself), so the parent's value cannot show through.
    pub fn remove(&mut self, name: &str) -> bool {
        let name = name.to_ascii_lowercase();
        if let Some(parent) = self.parent.take_if(|p| p.attrs.contains_key(&name)) {
            for (key, inherited) in &parent.attrs {
                self.attrs
                    .entry(key.clone())
                    .or_insert_with(|| inherited.clone());
            }
        }
        self.attrs.remove(&name).is_some()
    }

    /// True if the attribute exists.
    pub fn has(&self, name: &str) -> bool {
        self.entry(&name.to_ascii_lowercase()).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        let inherited = self.parent.as_ref().map_or(0, |p| {
            let visible = |key: &&String| !self.attrs.contains_key(*key);
            p.attrs.keys().filter(visible).count()
        });
        self.attrs.len() + inherited
    }

    /// True when the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.parent.as_ref().is_none_or(|p| p.attrs.is_empty())
    }

    // Own and inherited entries merged by lower-cased name, own first on a
    // tie (and the inherited one dropped): the flattened ad's order.
    fn entries(&self) -> Entries<'_> {
        Entries {
            own: self.attrs.iter().peekable(),
            inherited: self.parent.as_ref().map(|p| p.attrs.iter().peekable()),
        }
    }

    /// Iterate `(display_name, expr)` in deterministic (lexical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries().map(|(_, (d, e))| (d.as_str(), e))
    }

    /// Iterate `(lower_cased_name, expr)` in the same order.
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries().map(|(key, (_, e))| (key.as_str(), e))
    }

    /// Iterate `(lower_cased_name, expr)` over the attributes this ad holds
    /// itself rather than inherits, in lexical order.
    pub fn own(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.attrs.iter().map(|(key, (_, e))| (key.as_str(), e))
    }

    /// Evaluate one attribute of this ad with no candidate ad in scope.
    /// Missing attributes are `Undefined`.
    pub fn value_of(&self, name: &str) -> Value {
        crate::eval::eval_attr(self, None, name)
    }
}

type Entry<'a> = (&'a String, &'a (String, Expr));
type EntryIter<'a> = Peekable<btree_map::Iter<'a, String, (String, Expr)>>;

struct Entries<'a> {
    own: EntryIter<'a>,
    inherited: Option<EntryIter<'a>>,
}

impl<'a> Iterator for Entries<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Entry<'a>> {
        let Some(inherited) = &mut self.inherited else {
            return self.own.next();
        };
        match (self.own.peek(), inherited.peek()) {
            (Some((mine, _)), Some((theirs, _))) if mine >= theirs => {
                if mine == theirs {
                    inherited.next(); // shadowed
                    self.own.next()
                } else {
                    inherited.next()
                }
            }
            (Some(_), _) => self.own.next(),
            (None, _) => inherited.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (own, inherited) = (
            self.own.len(),
            self.inherited.as_ref().map_or(0, |i| i.len()),
        );
        (own.max(inherited), Some(own + inherited))
    }
}

/// Equality is by content: a chained ad equals its flattened copy. Two
/// children of one parent allocation with equal attributes of their own
/// are equal without looking at the parent.
impl PartialEq for ClassAd {
    fn eq(&self, other: &ClassAd) -> bool {
        let same_parent = match (&self.parent, &other.parent) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        (same_parent && self.attrs == other.attrs) || self.entries().eq(other.entries())
    }
}

impl fmt::Display for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for (name, expr) in self.iter() {
            writeln!(f, "    {name} = {expr};")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup_case_insensitive() {
        let ad = ClassAd::new()
            .with_int("Memory", 128)
            .with_str("OpSys", "LINUX");
        assert!(ad.has("memory"));
        assert!(ad.has("MEMORY"));
        assert_eq!(ad.value_of("memory"), Value::Int(128));
        assert_eq!(ad.value_of("opsys"), Value::str("LINUX"));
        assert_eq!(ad.value_of("nope"), Value::Undefined);
        assert_eq!(ad.len(), 2);
    }

    #[test]
    fn parse_round_trip() {
        let src = "[ Memory = 64; Requirements = TARGET.Owner == \"ada\"; HasJava = true ]";
        let ad = ClassAd::parse(src).unwrap();
        assert_eq!(ad.len(), 3);
        let printed = ad.to_string();
        let again = ClassAd::parse(&printed).unwrap();
        assert_eq!(ad, again);
    }

    #[test]
    fn duplicate_names_last_wins() {
        let ad = ClassAd::parse("[ a = 1; A = 2 ]").unwrap();
        assert_eq!(ad.len(), 1);
        assert_eq!(ad.value_of("a"), Value::Int(2));
    }

    #[test]
    fn attribute_referencing_sibling() {
        let ad = ClassAd::new()
            .with_int("Disk", 100)
            .with_expr("HalfDisk", "Disk / 2");
        assert_eq!(ad.value_of("HalfDisk"), Value::Int(50));
    }

    #[test]
    fn remove_and_empty() {
        let mut ad = ClassAd::new().with_int("x", 1);
        assert!(!ad.is_empty());
        assert!(ad.remove("X"));
        assert!(!ad.remove("X"));
        assert!(ad.is_empty());
    }

    #[test]
    fn chained_ad_reads_as_its_flattened_copy() {
        let parent = Arc::new(
            ClassAd::new()
                .with_int("Memory", 128)
                .with_str("OpSys", "LINUX")
                .with_expr(
                    "Requirements",
                    "TARGET.ImageSize <= MY.Memory && Name == \"m1\"",
                ),
        );
        let mut child = ClassAd::chained(Arc::clone(&parent));
        assert_eq!(child, *parent);
        child.insert("Name", Value::str("m1"));
        child.insert("MEMORY", Value::Int(256)); // shadows, with its own spelling
        let flat = ClassAd::clone(&parent)
            .with_str("Name", "m1")
            .with_int("MEMORY", 256);
        assert!(Arc::ptr_eq(child.parent().unwrap(), &parent));
        assert_eq!((child.len(), child.is_empty()), (4, false));
        assert_eq!(child.value_of("memory"), Value::Int(256));
        assert!(child.has("opsys") && !child.has("nope"));
        assert!(child.iter().eq(flat.iter()));
        assert_eq!(child.to_string(), flat.to_string());
        assert_eq!(child, flat);
        assert_eq!(flat, child);
        assert_ne!(child, *parent);
        assert_eq!(
            child.own().map(|(n, _)| n).collect::<Vec<_>>(),
            ["memory", "name"]
        );
        // Two children of one allocation, equal in what they hold themselves.
        let twin = ClassAd::chained(Arc::clone(&parent))
            .with_str("Name", "m1")
            .with_int("MEMORY", 256);
        assert_eq!(child, twin);
        // The parent's bare `Name` finds the child's attribute.
        let job = ClassAd::new().with_int("ImageSize", 64);
        assert!(crate::matchmaking::requirements_met(&child, &job));
        assert!(!crate::matchmaking::requirements_met(&parent, &job));
    }

    #[test]
    fn removing_an_inherited_attribute_hides_it_for_good() {
        let parent = Arc::new(ClassAd::new().with_int("a", 1).with_int("b", 2));
        let mut child = ClassAd::chained(Arc::clone(&parent)).with_int("c", 3);
        assert!(child.remove("C") && child.parent().is_some());
        assert!(!child.remove("nope") && child.parent().is_some());
        assert!(child.remove("A"));
        assert!(!child.has("a") && !child.remove("a"));
        assert_eq!(child, ClassAd::new().with_int("b", 2));
        assert_eq!(parent.len(), 2);
    }

    #[test]
    #[should_panic(expected = "may not itself be chained")]
    fn chains_are_one_level_deep() {
        let middle = ClassAd::chained(Arc::new(ClassAd::new()));
        let _ = ClassAd::chained(Arc::new(middle));
    }

    #[test]
    #[should_panic]
    fn with_expr_panics_on_garbage() {
        let _ = ClassAd::new().with_expr("r", "1 +");
    }
}

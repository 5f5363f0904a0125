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
//!
//! A pool holds one such child per machine, of two or three attributes, so
//! the container is a per-machine cost: an ad keeps its own attributes in
//! one vector, sorted by lower-cased name and sized exactly, where a
//! B-tree would spend a ≈1.1 KB leaf on them.

use crate::ast::Expr;
use crate::parser::{parse_ad_pairs, ParseError};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

// The ad's own attributes, sorted by lower-case name (lookup is a binary
// search; iteration order is lexical, so deterministic) and sized exactly:
// a machine's child ad holds two or three of them, and a pool holds
// thousands of such ads.
type Attrs = Vec<Attr>;

// One attribute: its name as written followed by the same name lower-cased,
// in one allocation (ASCII lower-casing keeps the length, so each is half
// of it), and its expression.
#[derive(Debug, Clone, PartialEq)]
struct Attr {
    names: Box<str>,
    expr: Expr,
}

impl Attr {
    fn new(display: &str, expr: Expr) -> Attr {
        let mut names = String::with_capacity(2 * display.len());
        names.push_str(display);
        names.push_str(display);
        names[display.len()..].make_ascii_lowercase();
        Attr {
            names: names.into_boxed_str(),
            expr,
        }
    }

    /// The name as written.
    fn display(&self) -> &str {
        &self.names[..self.names.len() / 2]
    }

    /// The name as looked up.
    fn key(&self) -> &str {
        &self.names[self.names.len() / 2..]
    }
}

// Where the attribute called `name`, in any case, is in `attrs`, or where
// it would go. Each key is compared with `name` lower-cased a byte at a
// time, in the order a lower-cased copy would sort in, so a lookup
// copies nothing.
fn find(attrs: &[Attr], name: &str) -> Result<usize, usize> {
    let lower = || name.bytes().map(|b| b.to_ascii_lowercase());
    attrs.binary_search_by(|attr| attr.key().bytes().cmp(lower()))
}

// The attribute called `name`, in any case, in `attrs`.
fn lookup<'a>(attrs: &'a [Attr], name: &str) -> Option<&'a Attr> {
    attrs.get(find(attrs, name).ok()?)
}

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
        let pairs = parse_ad_pairs(input)?.into_iter();
        let mut attrs: Attrs = pairs.map(|(name, expr)| Attr::new(&name, expr)).collect();
        // The sort is stable, so duplicates stay in written order; each
        // later one takes the earlier one's place.
        attrs.sort_by(|a, b| a.key().cmp(b.key()));
        attrs.dedup_by(|later, earlier| {
            let same = later.key() == earlier.key();
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        attrs.shrink_to_fit();
        Ok(ClassAd {
            attrs,
            parent: None,
        })
    }

    /// Insert an attribute given its expression.
    pub fn insert_expr(&mut self, name: impl AsRef<str>, expr: Expr) -> &mut Self {
        let attr = Attr::new(name.as_ref(), expr);
        match find(&self.attrs, attr.key()) {
            Ok(at) => self.attrs[at] = attr,
            Err(at) => {
                self.attrs.reserve_exact(1);
                self.attrs.insert(at, attr);
            }
        }
        self
    }

    /// Insert a literal value.
    pub fn insert(&mut self, name: impl AsRef<str>, value: Value) -> &mut Self {
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

    fn entry(&self, name: &str) -> Option<&Attr> {
        let inherited = || lookup(&self.parent.as_ref()?.attrs, name);
        lookup(&self.attrs, name).or_else(inherited)
    }

    /// Look up an attribute's expression by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&Expr> {
        self.entry(name).map(|attr| &attr.expr)
    }

    /// Remove an attribute. Returns whether it was present. Removing an
    /// inherited attribute unchains the ad first (it becomes the flat copy
    /// of itself), so the parent's value cannot show through.
    pub fn remove(&mut self, name: &str) -> bool {
        let inherited = |p: &Arc<ClassAd>| find(&p.attrs, name).is_ok();
        if self.parent.as_ref().is_some_and(inherited) {
            self.attrs = self.entries().cloned().collect();
            self.parent = None;
        }
        let Ok(at) = find(&self.attrs, name) else {
            return false;
        };
        self.attrs.remove(at);
        self.attrs.shrink_to_fit();
        true
    }

    /// True if the attribute exists.
    pub fn has(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// True when the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.parent.as_ref().is_none_or(|p| p.attrs.is_empty())
    }

    // Own and inherited attributes merged by lower-cased name, own first on
    // a tie (and the inherited one dropped): the flattened ad's order.
    fn entries(&self) -> Entries<'_> {
        Entries {
            own: &self.attrs,
            inherited: self.parent.as_ref().map_or(&[], |p| &p.attrs),
        }
    }

    /// Iterate `(display_name, expr)` in deterministic (lexical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries().map(|attr| (attr.display(), &attr.expr))
    }

    /// Iterate `(lower_cased_name, expr)` in the same order.
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries().map(|attr| (attr.key(), &attr.expr))
    }

    /// Iterate `(lower_cased_name, expr)` over the attributes this ad holds
    /// itself rather than inherits, in lexical order.
    pub fn own(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.attrs.iter().map(|attr| (attr.key(), &attr.expr))
    }

    /// Evaluate one attribute of this ad with no candidate ad in scope.
    /// Missing attributes are `Undefined`.
    pub fn value_of(&self, name: &str) -> Value {
        crate::eval::eval_attr(self, None, name)
    }
}

struct Entries<'a> {
    own: &'a [Attr],
    inherited: &'a [Attr],
}

impl<'a> Iterator for Entries<'a> {
    type Item = &'a Attr;

    fn next(&mut self) -> Option<&'a Attr> {
        let take_own = match (self.own.first(), self.inherited.first()) {
            (Some(mine), Some(theirs)) => match mine.key().cmp(theirs.key()) {
                Ordering::Less => true,
                Ordering::Equal => {
                    self.inherited = &self.inherited[1..]; // shadowed
                    true
                }
                Ordering::Greater => false,
            },
            (mine, _) => mine.is_some(),
        };
        let side = if take_own {
            &mut self.own
        } else {
            &mut self.inherited
        };
        let (first, rest) = side.split_first()?;
        *side = rest;
        Some(first)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (own, inherited) = (self.own.len(), self.inherited.len());
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
    use propcheck::{check, Gen};
    use std::collections::BTreeMap;

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

    /// The semantics the storage keeps, written over ordered maps: the
    /// ad's own attributes keyed by lower-cased name, and its parent's
    /// read through where it has none of its own.
    #[derive(Default)]
    struct Model {
        own: BTreeMap<String, (String, Expr)>,
        parent: Option<BTreeMap<String, (String, Expr)>>,
    }

    impl Model {
        fn insert(&mut self, name: &str, expr: Expr) {
            let key = name.to_ascii_lowercase();
            self.own.insert(key, (name.to_string(), expr));
        }

        fn remove(&mut self, name: &str) -> bool {
            let key = name.to_ascii_lowercase();
            if let Some(parent) = self.parent.take_if(|p| p.contains_key(&key)) {
                for (key, inherited) in parent {
                    self.own.entry(key).or_insert(inherited);
                }
            }
            self.own.remove(&key).is_some()
        }

        fn flat(&self) -> BTreeMap<String, (String, Expr)> {
            let mut flat = self.parent.clone().unwrap_or_default();
            flat.extend(self.own.clone());
            flat
        }

        fn get(&self, name: &str) -> Option<Expr> {
            let flat = self.flat();
            flat.get(&name.to_ascii_lowercase()).map(|(_, e)| e.clone())
        }
    }

    const NAMES: [&str; 10] = [
        "a", "A", "b", "B", "name", "Name", "NAME", "hasJava", "HasJava", "memory",
    ];

    fn any_expr(g: &mut Gen) -> Expr {
        match g.below(4) {
            0 => Expr::int(g.int(0i64..3)),
            1 => Expr::Lit(Value::Bool(g.bool())),
            2 => Expr::string(*g.pick(&["x", "y"])),
            _ => Expr::attr(g.pick::<&str>(&NAMES)),
        }
    }

    /// `ad` reads as `model` through every reader.
    fn agrees(ad: &ClassAd, model: &Model) {
        let flat = model.flat();
        let own = model.own.iter();
        assert!(ad.iter().eq(flat.values().map(|(d, e)| (d.as_str(), e))));
        assert!(ad
            .keyed()
            .eq(flat.iter().map(|(k, (_, e))| (k.as_str(), e))));
        assert!(ad.own().eq(own.map(|(k, (_, e))| (k.as_str(), e))));
        assert_eq!((ad.len(), ad.is_empty()), (flat.len(), flat.is_empty()));
        assert_eq!(ad.parent().is_some(), model.parent.is_some());
        let lines = flat.values().map(|(d, e)| format!("    {d} = {e};\n"));
        assert_eq!(ad.to_string(), format!("[\n{}]", lines.collect::<String>()));
        let mut copy = ClassAd::new();
        for (display, expr) in flat.values() {
            copy.insert_expr(display, expr.clone());
        }
        assert_eq!(*ad, copy);
        assert_eq!(copy, *ad);
    }

    /// The sorted vector against the ordered maps it replaced, on mixed-case
    /// and duplicate names, over flat ads and two children of one parent:
    /// every step of a random edit sequence leaves every reader, and `==`
    /// between the two ads, as the model says.
    #[test]
    fn storage_agrees_with_the_map_model() {
        check(10_000, |g| {
            let (mut parent, mut parent_model) = (ClassAd::new(), Model::default());
            for _ in 0..g.int(0..=4) {
                let (name, expr) = (*g.pick(&NAMES), any_expr(g));
                parent.insert_expr(name, expr.clone());
                parent_model.insert(name, expr);
            }
            agrees(&parent, &parent_model);
            let (parent, chained) = (Arc::new(parent), g.bool());
            let fresh = || match chained {
                true => (
                    ClassAd::chained(Arc::clone(&parent)),
                    Model {
                        own: BTreeMap::new(),
                        parent: Some(parent_model.own.clone()),
                    },
                ),
                false => (ClassAd::new(), Model::default()),
            };
            let mut ads = [fresh(), fresh()];
            for _ in 0..g.int(1..=12) {
                let (ad, model) = &mut ads[g.below(2)];
                let name = *g.pick(&NAMES);
                match g.below(6) {
                    0 => {
                        let value = Value::Int(g.int(0i64..3));
                        ad.insert(name, value.clone());
                        model.insert(name, Expr::Lit(value));
                    }
                    1 => {
                        let expr = any_expr(g);
                        ad.insert_expr(name, expr.clone());
                        model.insert(name, expr);
                    }
                    2 => assert_eq!(ad.remove(name), model.remove(name)),
                    3 => assert_eq!(ad.get(name), model.get(name).as_ref()),
                    4 => assert_eq!(ad.has(name), model.get(name).is_some()),
                    _ => assert_eq!(ad.len(), model.flat().len()),
                }
                let [(a, a_model), (b, b_model)] = &ads;
                agrees(a, a_model);
                agrees(b, b_model);
                let same = a_model.flat() == b_model.flat();
                assert_eq!((a == b, b == a), (same, same));
            }
        });
    }

    /// `parse` sorts what it reads and keeps the last of a name, spelling
    /// and all — as inserting the pairs in written order does.
    #[test]
    fn parse_agrees_with_inserting_in_order() {
        check(10_000, |g| {
            let mut model = Model::default();
            let pairs = g.vec(0..=8, |g| (*g.pick(&NAMES), any_expr(g)));
            for (name, expr) in &pairs {
                model.insert(name, expr.clone());
            }
            let text: Vec<String> = pairs.iter().map(|(n, e)| format!("{n} = {e}")).collect();
            let ad = ClassAd::parse(&format!("[ {} ]", text.join("; "))).unwrap();
            agrees(&ad, &model);
        });
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

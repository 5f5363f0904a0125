//! Machines: what owners contribute to the pool.
//!
//! A machine's ad is a shape and a name. Everything its owner configured —
//! `Memory`, `Arch`, `OpSys`, the policy in `Requirements`, `Rank` — is the
//! machine-independent *base*, built (and its policy text parsed) once per
//! distinct configuration and shared by every machine that has it
//! (`BaseAds`, in both pool builders). What a machine adds is a child
//! [chained](ClassAd::chained) to that base: its `Name`, the `MachineId`
//! its startd stamps on it, and `HasJava` — the one thing §5's startd
//! decides per machine, after the self-test, and may take back.

use classads::ClassAd;
use gridvm::config::Installation;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A machine as its owner configures it.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Display name.
    pub name: String,
    /// Physical memory (MB), advertised and enforced through matchmaking.
    pub memory: i64,
    /// Architecture string.
    pub arch: String,
    /// Operating system string.
    pub opsys: String,
    /// The owner's *assertion* that Java works here. §5: "Rather than
    /// blindly accept each owner's assertion regarding the Java
    /// installation…" — the assertion may be wrong.
    pub asserts_java: bool,
    /// The actual VM installation (the ground truth the assertion may
    /// misrepresent).
    pub installation: Installation,
    /// Owner policy expression for the machine's `Requirements`.
    pub owner_requirements: String,
}

impl MachineSpec {
    /// A healthy machine that correctly asserts Java.
    pub fn healthy(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            name: name.to_string(),
            memory,
            arch: "INTEL".into(),
            opsys: "LINUX".into(),
            asserts_java: true,
            installation: Installation::healthy(),
            owner_requirements: "TARGET.ImageSize <= MY.Memory".into(),
        }
    }

    /// A machine whose owner asserts Java but whose installation is dead —
    /// §2.3's "the machine owner might give an incorrect path".
    pub fn misconfigured(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            installation: Installation::bad_path(),
            ..MachineSpec::healthy(name, memory)
        }
    }

    /// The insidious variant: the VM starts but the standard library is
    /// missing, so only programs touching the stdlib die.
    pub fn partially_misconfigured(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            installation: Installation::missing_stdlib(),
            ..MachineSpec::healthy(name, memory)
        }
    }

    /// Replace the installation (builder style).
    pub fn with_installation(mut self, install: Installation) -> MachineSpec {
        self.installation = install;
        self
    }

    /// The machine-independent part of the ad: what the owner configured —
    /// `memory`, `arch`, `opsys` and `owner_requirements`, and nothing else
    /// of the spec.
    pub fn base_ad(&self) -> ClassAd {
        ClassAd::new()
            .with_int("Memory", self.memory)
            .with_str("Arch", &self.arch)
            .with_str("OpSys", &self.opsys)
            // The owner's policy is free text and must be parsed; the
            // constant rank need not be.
            .with_expr("Requirements", &self.owner_requirements)
            .with_int("Rank", 0)
    }

    // What the [base ad](MachineSpec::base_ad) is made from.
    fn configuration(&self) -> (i64, &str, &str, &str) {
        let policy = &self.owner_requirements;
        (self.memory, &self.arch, &self.opsys, policy)
    }

    /// The machine's own part of the ad, chained to `base` (which must be
    /// this spec's [`base_ad`](MachineSpec::base_ad)). `advertise_java` is
    /// the startd's decision after any self-test — it may differ from the
    /// owner's assertion.
    pub fn ad_over(&self, base: Arc<ClassAd>, advertise_java: bool) -> ClassAd {
        let ad = ClassAd::chained(base).with_str("Name", &self.name);
        if advertise_java {
            ad.with_bool("HasJava", true)
        } else {
            ad
        }
    }

    /// The machine's ClassAd, over a base of its own.
    pub fn ad(&self, advertise_java: bool) -> ClassAd {
        self.ad_over(Arc::new(self.base_ad()), advertise_java)
    }
}

/// Hands every machine of one owner configuration the same base ad: the
/// sharing step of the pool builders. A pool's machines mostly come in
/// runs of one configuration, so the base handed out last is tried first;
/// telling configurations apart compares and hashes borrowed fields and
/// allocates nothing per machine.
#[derive(Default)]
pub(crate) struct BaseAds {
    // The first spec seen of each configuration, and its base.
    known: Vec<(MachineSpec, Arc<ClassAd>)>,
    // Where in `known` the configurations of one hash are. Lookup-only.
    index: HashMap<u64, Vec<usize>>,
    last: usize,
}

impl BaseAds {
    /// The shared [base ad](MachineSpec::base_ad) for `spec`.
    pub(crate) fn base_for(&mut self, spec: &MachineSpec) -> Arc<ClassAd> {
        let wanted = spec.configuration();
        let same = |&at: &usize| self.known[at].0.configuration() == wanted;
        if !(self.last < self.known.len() && same(&self.last)) {
            let mut hasher = DefaultHasher::new();
            wanted.hash(&mut hasher);
            let alike = self.index.entry(hasher.finish()).or_default();
            self.last = alike.iter().copied().find(same).unwrap_or_else(|| {
                alike.push(self.known.len());
                self.known.push((spec.clone(), Arc::new(spec.base_ad())));
                self.known.len() - 1
            });
        }
        Arc::clone(&self.known[self.last].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classads::prelude::*;
    use gridvm::config::InstallHealth;

    #[test]
    fn healthy_machine_advertises_java_attr_only_when_told() {
        let m = MachineSpec::healthy("node1", 256);
        assert!(m.ad(true).has("HasJava"));
        assert!(!m.ad(false).has("HasJava"));
    }

    /// The constant `Rank` is built as a literal; it must equal what the
    /// parser makes of `"0"`, or the compiled ad (and every digest
    /// downstream) would move.
    #[test]
    fn constructed_ad_equals_its_parsed_text_form() {
        let m = MachineSpec::healthy("node1", 256);
        let parsed = ClassAd::new()
            .with_str("Name", "node1")
            .with_int("Memory", 256)
            .with_str("Arch", "INTEL")
            .with_str("OpSys", "LINUX")
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        assert_eq!(m.ad(false), parsed);
        assert_eq!(m.ad(true), parsed.with_bool("HasJava", true));
    }

    /// One base per configuration, each seen again after two hundred
    /// others — the order that defeats the last-tried fast path.
    #[test]
    fn base_ads_are_one_per_configuration() {
        let mut bases = BaseAds::default();
        let spec = |i: usize, memory: i64| MachineSpec::healthy(&format!("m{i}"), memory);
        let specs: Vec<MachineSpec> = (0..600).map(|i| spec(i, 64 + (i % 200) as i64)).collect();
        let handed: Vec<Arc<ClassAd>> = specs.iter().map(|s| bases.base_for(s)).collect();
        assert_eq!(bases.known.len(), 200);
        for (i, (spec, base)) in specs.iter().zip(&handed).enumerate() {
            assert_eq!(**base, spec.base_ad());
            assert!(Arc::ptr_eq(base, &handed[i % 200]));
        }
        // Every field of the configuration tells, and nothing else does.
        let plain = bases.base_for(&spec(0, 64));
        let named = MachineSpec::misconfigured("other", 64);
        assert!(Arc::ptr_eq(&plain, &bases.base_for(&named)));
        let mut odd = spec(0, 64);
        odd.opsys = "SOLARIS".into();
        assert!(!Arc::ptr_eq(&plain, &bases.base_for(&odd)));
        odd = spec(0, 64);
        odd.owner_requirements = "true".into();
        assert!(!Arc::ptr_eq(&plain, &bases.base_for(&odd)));
        assert_eq!(bases.known.len(), 202);
    }

    #[test]
    fn misconfigured_machines_keep_asserting() {
        let m = MachineSpec::misconfigured("liar", 256);
        assert!(m.asserts_java);
        assert_eq!(m.installation.health, InstallHealth::BadPath);
        let p = MachineSpec::partially_misconfigured("half", 256);
        assert_eq!(p.installation.health, InstallHealth::MissingStdlib);
    }

    #[test]
    fn owner_requirements_gate_big_jobs() {
        let m = MachineSpec::healthy("node1", 100);
        let mad = m.ad(true);
        let small_job = ClassAd::new()
            .with_int("ImageSize", 50)
            .with_expr("Requirements", "true");
        let big_job = ClassAd::new()
            .with_int("ImageSize", 500)
            .with_expr("Requirements", "true");
        assert!(requirements_met(&mad, &small_job));
        assert!(!requirements_met(&mad, &big_job));
    }
}

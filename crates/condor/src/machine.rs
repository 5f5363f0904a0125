//! Machines: what owners contribute to the pool.

use classads::ClassAd;
use gridvm::config::Installation;

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

    /// The machine's ClassAd. `advertise_java` is the startd's decision
    /// after any self-test — it may differ from the owner's assertion.
    pub fn ad(&self, advertise_java: bool) -> ClassAd {
        let mut ad = ClassAd::new()
            .with_str("Name", &self.name)
            .with_int("Memory", self.memory)
            .with_str("Arch", &self.arch)
            .with_str("OpSys", &self.opsys)
            // The owner's policy is free text and must be parsed; the
            // constant rank need not be.
            .with_expr("Requirements", &self.owner_requirements)
            .with_int("Rank", 0);
        if advertise_java {
            ad = ad.with_bool("HasJava", true);
        }
        ad
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

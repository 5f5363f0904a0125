//! The program wrapper and the naive exit-code path — §4 and Figure 4.
//!
//! The paper's fix for the JVM's useless exit code: "the starter causes the
//! JVM to invoke the wrapper with the actual program as an argument. The
//! wrapper locates the program, attempts to execute it, and catches any
//! exceptions it may throw. It examines the exception type, and then
//! produces a result file describing the program result and the scope of
//! any errors discovered. The starter examines this result file and ignores
//! the JVM result entirely."
//!
//! [`run_naive`] is the *before* system: the JVM result code alone, which
//! collapses every failure in Figure 4 to `1`. [`run_wrapped`] is the
//! *after* system: the JVM result code (unchanged!) plus the result file
//! the starter actually reads.

use crate::config::Installation;
use crate::jvmio::JobIo;
use crate::machine::{load_and_run, RunOutput, Termination};
use crate::trace::VmStats;
use errorscope::resultfile::ResultFile;
use errorscope::ScopedError;

/// The naive attempt's entire output: the exit code of the VM process.
/// Figure 4's middle column: completion → the program's own code; any
/// exception or environmental failure → 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveExit(pub i32);

/// Execute a job the pre-redesign way, trusting the VM exit code. The run
/// output is also returned so experiments can see what information the exit
/// code destroyed.
pub fn run_naive(
    image_bytes: &[u8],
    install: &Installation,
    io: &mut dyn JobIo,
) -> (NaiveExit, RunOutput) {
    let out = load_and_run(image_bytes, install, io);
    let code = match &out.termination {
        Termination::Completed { exit_code } => *exit_code,
        // Any exception — the program's own or the environment's — makes
        // the VM exit 1. This is the row-collapsing behaviour of Figure 4.
        Termination::Exception { .. } | Termination::EnvFailure { .. } => 1,
    };
    (NaiveExit(code), out)
}

/// The wrapper's complete report.
#[derive(Debug, Clone)]
pub struct WrappedRun {
    /// What the VM process exit code would have been (for comparison; the
    /// starter ignores it).
    pub jvm_exit: NaiveExit,
    /// The result file the wrapper writes through the indirect channel.
    pub result_file: ResultFile,
    /// Serialised form, as the starter would find it on disk.
    pub result_file_bytes: String,
    /// The run's collected stdout.
    pub stdout: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Trace-tier counters for the run (not part of equality: they
    /// describe how the VM ran, not what the program computed).
    pub vm: VmStats,
    /// For environment failures, the error's telemetry journey so far: the
    /// original escaping error (if the failure arrived from the I/O layer)
    /// or a fresh one raised here, re-expressed by the wrapper into the
    /// result file. The starter continues the journey from this point.
    pub journey: Option<ScopedError>,
}

impl PartialEq for WrappedRun {
    /// Equality is over what the run *produced* — exit code, result file,
    /// stdout, instruction count, journey — not the [`VmStats`] describing
    /// which execution tier produced it.
    fn eq(&self, other: &Self) -> bool {
        self.jvm_exit == other.jvm_exit
            && self.result_file == other.result_file
            && self.result_file_bytes == other.result_file_bytes
            && self.stdout == other.stdout
            && self.instructions == other.instructions
            && self.journey == other.journey
    }
}

/// Execute a job under the wrapper: run it, catch everything, classify the
/// scope, and produce the result file.
pub fn run_wrapped(image_bytes: &[u8], install: &Installation, io: &mut dyn JobIo) -> WrappedRun {
    let out = load_and_run(image_bytes, install, io);
    let jvm_exit = match &out.termination {
        Termination::Completed { exit_code } => NaiveExit(*exit_code),
        _ => NaiveExit(1),
    };
    let journey = journey_for(&out.termination, out.env_error);
    let result_file = result_file(out.termination);
    let result_file_bytes = result_file.to_json();
    WrappedRun {
        jvm_exit,
        result_file,
        result_file_bytes,
        stdout: out.stdout,
        instructions: out.instructions,
        vm: out.vm,
        journey,
    }
}

/// The wrapper's contribution to the error's telemetry journey. An I/O
/// escape already carries its span and trail from the io-library (it
/// arrives as `escaped`); a failure detected by the VM itself starts its
/// journey here. Either way the wrapper's own act — catching the error and
/// re-expressing it as a result file — is appended as the journey's latest
/// hop.
fn journey_for(t: &Termination, escaped: Option<ScopedError>) -> Option<ScopedError> {
    let Termination::EnvFailure {
        scope,
        code,
        message,
    } = t
    else {
        return None;
    };
    let err = escaped
        .unwrap_or_else(|| ScopedError::escaping(code.clone(), *scope, "wrapper", message.clone()));
    Some(err.reexpress("wrapper"))
}

/// The wrapper's classification step: termination → result file.
pub fn classify(t: &Termination) -> ResultFile {
    result_file(t.clone())
}

/// [`classify`] for a termination nobody else needs: its text moves into
/// the result file.
fn result_file(t: Termination) -> ResultFile {
    match t {
        Termination::Completed { exit_code } => ResultFile::completed(exit_code),
        Termination::Exception { name, message } => {
            ResultFile::program_exception(errorscope::ErrorCode::owned(name), message)
        }
        Termination::EnvFailure {
            scope,
            code,
            message,
        } => ResultFile::environment_failure(scope, code, message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jvmio::NoIo;
    use crate::programs;
    use errorscope::resultfile::Outcome;
    use errorscope::Scope;

    fn healthy() -> Installation {
        Installation::healthy()
    }

    #[test]
    fn figure4_naive_codes_collapse() {
        // Rows of Figure 4, middle column: 0, x, then 1 for everything.
        let (e, _) = run_naive(&programs::completes_main(), &healthy(), &mut NoIo);
        assert_eq!(e, NaiveExit(0));
        let (e, _) = run_naive(&programs::calls_exit(5), &healthy(), &mut NoIo);
        assert_eq!(e, NaiveExit(5));
        let (e, _) = run_naive(&programs::null_dereference(), &healthy(), &mut NoIo);
        assert_eq!(e, NaiveExit(1));
        let (e, _) = run_naive(
            &programs::exhausts_memory(),
            &healthy().with_heap_limit(1 << 14),
            &mut NoIo,
        );
        assert_eq!(e, NaiveExit(1));
        let (e, _) = run_naive(
            &programs::completes_main(),
            &Installation::bad_path(),
            &mut NoIo,
        );
        assert_eq!(e, NaiveExit(1));
        let (e, _) = run_naive(&programs::corrupt_image(), &healthy(), &mut NoIo);
        assert_eq!(e, NaiveExit(1));
        // The point: five different scopes, one indistinguishable code.
    }

    #[test]
    fn wrapper_distinguishes_what_exit_codes_collapse() {
        let w = run_wrapped(&programs::null_dereference(), &healthy(), &mut NoIo);
        assert_eq!(w.jvm_exit, NaiveExit(1));
        assert_eq!(w.result_file.scope(), Scope::Program);

        let w = run_wrapped(
            &programs::exhausts_memory(),
            &healthy().with_heap_limit(1 << 14),
            &mut NoIo,
        );
        assert_eq!(w.jvm_exit, NaiveExit(1));
        assert_eq!(w.result_file.scope(), Scope::VirtualMachine);

        let w = run_wrapped(
            &programs::completes_main(),
            &Installation::bad_path(),
            &mut NoIo,
        );
        assert_eq!(w.jvm_exit, NaiveExit(1));
        assert_eq!(w.result_file.scope(), Scope::RemoteResource);

        let w = run_wrapped(&programs::corrupt_image(), &healthy(), &mut NoIo);
        assert_eq!(w.jvm_exit, NaiveExit(1));
        assert_eq!(w.result_file.scope(), Scope::Job);
    }

    #[test]
    fn completion_reports_exit_code_in_result_file() {
        let w = run_wrapped(&programs::calls_exit(9), &healthy(), &mut NoIo);
        assert_eq!(w.result_file.outcome, Outcome::Completed { exit_code: 9 });
        assert!(w.result_file.is_program_result());
    }

    #[test]
    fn exception_detail_is_preserved() {
        let w = run_wrapped(&programs::index_out_of_bounds(), &healthy(), &mut NoIo);
        let Outcome::ProgramException { exception, message } = &w.result_file.outcome else {
            panic!("{:?}", w.result_file)
        };
        assert_eq!(exception.as_str(), "ArrayIndexOutOfBoundsException");
        assert!(message.contains("index 7"));
    }

    #[test]
    fn result_file_bytes_parse_back() {
        let w = run_wrapped(&programs::completes_main(), &healthy(), &mut NoIo);
        let parsed = ResultFile::from_json(&w.result_file_bytes).unwrap();
        assert_eq!(parsed, w.result_file);
    }

    #[test]
    fn wrapper_and_naive_agree_on_exit_code() {
        for prog in [
            programs::completes_main(),
            programs::calls_exit(3),
            programs::null_dereference(),
            programs::corrupt_image(),
        ] {
            let (naive, _) = run_naive(&prog, &healthy(), &mut NoIo);
            let wrapped = run_wrapped(&prog, &healthy(), &mut NoIo);
            assert_eq!(naive, wrapped.jvm_exit);
        }
    }

    #[test]
    fn env_failure_starts_a_journey_reexpressed_by_wrapper() {
        let w = run_wrapped(
            &programs::completes_main(),
            &Installation::bad_path(),
            &mut NoIo,
        );
        let j = w.journey.expect("environment failure has a journey");
        assert_ne!(j.span, obs::NO_SPAN);
        assert_eq!(j.scope, Scope::RemoteResource);
        assert!(matches!(
            j.trail.last().unwrap().action,
            errorscope::error::HopAction::Reexpressed
        ));
    }

    #[test]
    fn program_results_have_no_journey() {
        let w = run_wrapped(&programs::completes_main(), &healthy(), &mut NoIo);
        assert!(w.journey.is_none());
        let w = run_wrapped(&programs::null_dereference(), &healthy(), &mut NoIo);
        assert!(w.journey.is_none());
    }

    #[test]
    fn stdout_survives_the_wrapper() {
        let w = run_wrapped(&programs::completes_main(), &healthy(), &mut NoIo);
        assert_eq!(w.stdout, "42\n");
        assert!(w.instructions > 0);
    }
}

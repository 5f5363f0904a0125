//! The wrapper's result file — §4 of the paper.
//!
//! The JVM's exit code is not useful "because it does not distinguish error
//! scopes: a result of 1 could indicate a normal program exit, an exit with
//! an exception, or an error in the surrounding environment" (Figure 4).
//! The fix: the starter makes the JVM run a *wrapper* that executes the
//! actual program, catches any exception, examines its type, and "produces a
//! result file describing the program result and the scope of any errors
//! discovered. The starter examines this result file and ignores the JVM
//! result entirely."
//!
//! [`ResultFile`] is that file: a small record that is also the paper's
//! example of using "an indirect channel, such as a file, to carry the
//! necessary information to its destination" (§3.3).
//!
//! On disk it is one JSON object, `{"version":1,"outcome":{V:{…}}}`, where
//! `V` names the [`Outcome`] variant and its object holds that variant's
//! fields: `Completed` has `exit_code`; `ProgramException` has `exception`
//! and `message`; `EnvironmentFailure` has `scope` (the [`Scope`] variant's
//! own name, `"VirtualMachine"`, not the hyphenated [`Scope::name`]),
//! `code` and `message`. Readers take the keys in any order and skip ones
//! they do not know; a well-formed file of another version is refused.

use crate::error::ErrorCode;
use crate::scope::Scope;
use obs::json::{self, Json};
use std::fmt::{self, Write};

/// The program's fate as observed by the wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program exited by completing `main` or by calling
    /// `System.exit(code)`. Program scope; the exit code is the user's.
    Completed {
        /// The exit code: 0 for falling off `main`, `x` for
        /// `System.exit(x)`.
        exit_code: i32,
    },
    /// The program terminated with a program-generated exception (null
    /// dereference, array bounds, arithmetic, or a user-thrown exception).
    /// Still program scope: "users wanted to see program generated errors".
    ProgramException {
        /// Exception type name, e.g. `"ArrayIndexOutOfBoundsException"`.
        exception: ErrorCode,
        /// Exception message.
        message: String,
    },
    /// The environment, not the program, failed. The scope tells the
    /// surrounding system which manager must act; the code and message are
    /// diagnostic detail.
    EnvironmentFailure {
        /// The portion of the system the failure invalidates.
        scope: Scope,
        /// Machine-readable condition.
        code: ErrorCode,
        /// Diagnostic detail.
        message: String,
    },
}

/// The result file the wrapper leaves for the starter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultFile {
    /// Format version, for forward compatibility of the indirect channel.
    pub version: u32,
    /// What happened.
    pub outcome: Outcome,
}

/// Current format version.
pub const RESULT_FILE_VERSION: u32 = 1;

impl ResultFile {
    /// A normal completion.
    pub fn completed(exit_code: i32) -> Self {
        ResultFile {
            version: RESULT_FILE_VERSION,
            outcome: Outcome::Completed { exit_code },
        }
    }

    /// A program-scope exception.
    pub fn program_exception(exception: impl Into<ErrorCode>, message: impl Into<String>) -> Self {
        ResultFile {
            version: RESULT_FILE_VERSION,
            outcome: Outcome::ProgramException {
                exception: exception.into(),
                message: message.into(),
            },
        }
    }

    /// An environmental failure of the given scope.
    pub fn environment_failure(
        scope: Scope,
        code: impl Into<ErrorCode>,
        message: impl Into<String>,
    ) -> Self {
        ResultFile {
            version: RESULT_FILE_VERSION,
            outcome: Outcome::EnvironmentFailure {
                scope,
                code: code.into(),
                message: message.into(),
            },
        }
    }

    /// The scope of the recorded outcome. Completions and program
    /// exceptions are program scope by definition.
    pub fn scope(&self) -> Scope {
        match &self.outcome {
            Outcome::Completed { .. } | Outcome::ProgramException { .. } => Scope::Program,
            Outcome::EnvironmentFailure { scope, .. } => *scope,
        }
    }

    /// True when this is a result the user should see (program scope).
    pub fn is_program_result(&self) -> bool {
        self.scope() == Scope::Program
    }

    /// Serialise to the on-disk representation (JSON).
    pub fn to_json(&self) -> String {
        // Room for the fixed part and ~100 bytes of text: one allocation.
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"version\":{},\"outcome\":{{", self.version);
        let mut text = |key: &str, value: &str| {
            out.push_str(key);
            json::write_str(&mut out, value);
        };
        match &self.outcome {
            Outcome::Completed { exit_code } => {
                let _ = write!(out, "\"Completed\":{{\"exit_code\":{exit_code}");
            }
            Outcome::ProgramException { exception, message } => {
                text("\"ProgramException\":{\"exception\":", exception.as_str());
                text(",\"message\":", message);
            }
            Outcome::EnvironmentFailure {
                scope,
                code,
                message,
            } => {
                text("\"EnvironmentFailure\":{\"scope\":", variant_name(*scope));
                text(",\"code\":", code.as_str());
                text(",\"message\":", message);
            }
        }
        out.push_str("}}}");
        out
    }

    /// Parse the on-disk representation. A corrupt or unparseable result
    /// file is itself an environmental problem and yields `Err` — the
    /// starter must then treat the execution attempt as failed with
    /// indeterminate (execution-site) scope rather than trust a partial
    /// record.
    pub fn from_json(s: &str) -> Result<Self, ResultFileError> {
        let malformed = |what: &str| ResultFileError::Malformed(what.to_string());
        let doc = json::parse(s).map_err(|e| malformed(&e.to_string()))?;
        let version: u32 = int(doc.get("version"))
            .ok_or_else(|| malformed("`version` is missing or does not fit a u32"))?;
        let Some(Json::Obj(outcome)) = doc.get("outcome") else {
            return Err(malformed("`outcome` is missing or is not an object"));
        };
        let mut variants = outcome.iter();
        let (Some((variant, body)), None) = (variants.next(), variants.next()) else {
            return Err(malformed("`outcome` is not exactly one variant"));
        };
        let text = |key: &str| {
            let value = body.get(key).and_then(Json::as_str);
            value.ok_or_else(|| malformed(&format!("`{key}` of {variant} is not a string")))
        };
        let outcome = match variant.as_str() {
            "Completed" => Outcome::Completed {
                exit_code: int(body.get("exit_code"))
                    .ok_or_else(|| malformed("`exit_code` is missing or does not fit an i32"))?,
            },
            "ProgramException" => Outcome::ProgramException {
                exception: ErrorCode::owned(text("exception")?),
                message: text("message")?.to_string(),
            },
            "EnvironmentFailure" => {
                let name = text("scope")?;
                let scope = Scope::ALL.into_iter().find(|s| variant_name(*s) == name);
                Outcome::EnvironmentFailure {
                    scope: scope.ok_or_else(|| malformed(&format!("unknown scope `{name}`")))?,
                    code: ErrorCode::owned(text("code")?),
                    message: text("message")?.to_string(),
                }
            }
            other => return Err(malformed(&format!("unknown outcome `{other}`"))),
        };
        if version != RESULT_FILE_VERSION {
            return Err(ResultFileError::UnknownVersion(version));
        }
        Ok(ResultFile { version, outcome })
    }
}

/// An integer field, refused (not narrowed) when it does not fit `T`.
fn int<T: TryFrom<u64> + TryFrom<i64>>(value: Option<&Json>) -> Option<T> {
    match *value? {
        Json::UInt(v) => T::try_from(v).ok(),
        Json::Int(v) => T::try_from(v).ok(),
        _ => None,
    }
}

/// A scope as the result file spells it: the variant's own name.
fn variant_name(scope: Scope) -> &'static str {
    match scope {
        Scope::File => "File",
        Scope::Function => "Function",
        Scope::Network => "Network",
        Scope::Process => "Process",
        Scope::Cluster => "Cluster",
        Scope::Program => "Program",
        Scope::VirtualMachine => "VirtualMachine",
        Scope::RemoteResource => "RemoteResource",
        Scope::LocalResource => "LocalResource",
        Scope::Job => "Job",
        Scope::Pool => "Pool",
        Scope::System => "System",
    }
}

impl fmt::Display for ResultFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Completed { exit_code } => write!(f, "completed(exit={exit_code})"),
            Outcome::ProgramException { exception, message } => {
                write!(f, "program-exception({exception}: {message})")
            }
            Outcome::EnvironmentFailure {
                scope,
                code,
                message,
            } => {
                write!(f, "environment-failure({scope} scope, {code}: {message})")
            }
        }
    }
}

/// Failure to read a result file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultFileError {
    /// The bytes did not parse.
    Malformed(String),
    /// The format version is not one we understand.
    UnknownVersion(u32),
}

impl fmt::Display for ResultFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResultFileError::Malformed(m) => write!(f, "malformed result file: {m}"),
            ResultFileError::UnknownVersion(v) => write!(f, "unknown result file version {v}"),
        }
    }
}

impl std::error::Error for ResultFileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::codes::*;

    #[test]
    fn completion_is_program_scope() {
        let rf = ResultFile::completed(0);
        assert_eq!(rf.scope(), Scope::Program);
        assert!(rf.is_program_result());
        let rf = ResultFile::completed(42);
        assert!(rf.is_program_result());
    }

    #[test]
    fn program_exception_is_program_scope() {
        let rf = ResultFile::program_exception(INDEX_OUT_OF_BOUNDS, "index 7, length 3");
        assert_eq!(rf.scope(), Scope::Program);
        assert!(rf.is_program_result());
    }

    #[test]
    fn environment_failures_carry_their_scope() {
        let cases = [
            (Scope::VirtualMachine, OUT_OF_MEMORY),
            (Scope::RemoteResource, MISCONFIGURED_INSTALLATION),
            (Scope::LocalResource, FILESYSTEM_OFFLINE),
            (Scope::Job, CORRUPT_IMAGE),
        ];
        for (scope, code) in cases {
            let rf = ResultFile::environment_failure(scope, code.clone(), "x");
            assert_eq!(rf.scope(), scope);
            assert!(!rf.is_program_result());
        }
    }

    #[test]
    fn json_round_trip() {
        let files = [
            ResultFile::completed(7),
            ResultFile::completed(i32::MIN),
            ResultFile::completed(i32::MAX),
            ResultFile::program_exception(NULL_POINTER, "at main"),
            ResultFile::environment_failure(Scope::LocalResource, FILESYSTEM_OFFLINE, "nfs down"),
        ];
        for rf in files {
            let j = rf.to_json();
            let back = ResultFile::from_json(&j).unwrap();
            assert_eq!(back, rf);
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            ResultFile::from_json("{ not json"),
            Err(ResultFileError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut rf = ResultFile::completed(0);
        rf.version = 99;
        assert_eq!(
            ResultFile::from_json(&rf.to_json()),
            Err(ResultFileError::UnknownVersion(99))
        );
    }

    /// Integers that do not fit their field, outcomes that do not name
    /// exactly one variant, every truncation of a real file, and a file of
    /// nothing but open brackets, which used to overflow the reader's stack.
    #[test]
    fn out_of_range_and_truncated_files_are_malformed() {
        let completed = |version: &str, exit_code: &str| {
            format!(
                r#"{{"version":{version},"outcome":{{"Completed":{{"exit_code":{exit_code}}}}}}}"#
            )
        };
        let mut bad = vec![
            completed("1", "2147483648"),
            completed("1", "-2147483649"),
            completed("1", "99999999999"),
            completed("1", "0.5"),
            completed("4294967297", "0"),
            completed("-1", "0"),
            completed("1.5", "0"),
            r#"{"version":1,"outcome":{}}"#.to_string(),
            "[".repeat(50_000),
            format!(r#"{{"version":1,"outcome":{}"#, r#"{"Completed":"#.repeat(50_000)),
            r#"{"version":1,"outcome":{"Completed":{"exit_code":0},"ProgramException":{"exception":"E","message":"m"}}}"#.to_string(),
        ];
        for whole in [
            ResultFile::completed(-7),
            ResultFile::program_exception(NULL_POINTER, "é \"at\" a\\b\n"),
            ResultFile::environment_failure(Scope::Job, CORRUPT_IMAGE, "bad"),
        ]
        .map(|rf| rf.to_json())
        {
            let cuts = (0..whole.len()).filter(|n| whole.is_char_boundary(*n));
            bad.extend(cuts.map(|n| whole[..n].to_string()));
        }
        for doc in bad {
            let verdict = ResultFile::from_json(&doc);
            assert!(
                matches!(verdict, Err(ResultFileError::Malformed(_))),
                "{doc} read as {verdict:?}"
            );
        }
    }

    #[test]
    fn keys_come_in_any_order_and_unknown_ones_are_skipped() {
        let doc = r#" { "outcome" : { "Completed" : { "x" : [1, 2], "exit_code" : 3 } },
            "extra" : null, "version" : 1 } "#;
        assert_eq!(ResultFile::from_json(doc), Ok(ResultFile::completed(3)));
    }

    /// The channel's bytes, copied from the output of the derive-based
    /// writer this codec replaced: the ledger hashes them into its digests.
    #[test]
    fn to_json_writes_the_golden_bytes() {
        assert_eq!(
            ResultFile::completed(-7).to_json(),
            r#"{"version":1,"outcome":{"Completed":{"exit_code":-7}}}"#
        );
        let message = "q\" b\\ n\n t\t c\u{1} é\u{7f}";
        assert_eq!(
            ResultFile::program_exception(NULL_POINTER, message).to_json(),
            "{\"version\":1,\"outcome\":{\"ProgramException\":{\"exception\":\"NullPointerException\",\
             \"message\":\"q\\\" b\\\\ n\\n t\\t c\\u0001 é\u{7f}\"}}}"
        );
        let spelled = "File Function Network Process Cluster Program VirtualMachine \
                       RemoteResource LocalResource Job Pool System";
        for (scope, name) in Scope::ALL.into_iter().zip(spelled.split(' ')) {
            assert_eq!(
                ResultFile::environment_failure(scope, "Code", "m").to_json(),
                format!(
                    r#"{{"version":1,"outcome":{{"EnvironmentFailure":{{"scope":"{name}","code":"Code","message":"m"}}}}}}"#
                )
            );
        }
    }

    /// What the starter's `expect` on the wrapper's own file rests on:
    /// whatever strings an outcome carries, reading back what was written
    /// gives the same record.
    #[test]
    fn every_outcome_round_trips_over_seeded_strings() {
        const ALPHABET: [char; 16] = [
            'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', 'é', '誤', '😀',
            '\u{2028}', '\u{ffff}',
        ];
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn string(state: &mut u64) -> String {
            let len = splitmix64(state) % 12;
            (0..len)
                .map(|_| ALPHABET[(splitmix64(state) % 16) as usize])
                .collect()
        }
        let state = &mut 0x5EED;
        for i in 0..4_000 {
            let files = [
                ResultFile::completed(splitmix64(state) as i32),
                ResultFile::program_exception(string(state), string(state)),
                ResultFile::environment_failure(Scope::ALL[i % 12], string(state), string(state)),
            ];
            for rf in files {
                assert_eq!(ResultFile::from_json(&rf.to_json()), Ok(rf));
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ResultFile::completed(0).to_string(), "completed(exit=0)");
        let s = ResultFile::environment_failure(Scope::Job, CORRUPT_IMAGE, "bad").to_string();
        assert!(s.contains("job scope"));
    }
}

//! Experiment E4 — generic vs finite error interfaces (§3.4, Principle 4).
//!
//! "The generic error leads to more questions than answers … It is better
//! to exclude a DiskFull error entirely than to leave the participants
//! guessing at its existence."
//!
//! Drive an identical I/O workload with injected faults through the Chirp
//! stack under both disciplines and audit what crosses the interface:
//! * **finite** (scoped): in-vocabulary errors arrive explicitly; every
//!   out-of-vocabulary condition escapes by disconnection;
//! * **generic** (naive): everything is delivered to the program as an
//!   "IOException" — contract violations the auditor counts.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e4`

use crate::harness::Size;
use crate::render_table;
use chirp::backend::{EnvFault, MemFs};
use chirp::client::{ChirpClient, ClientDiscipline, IoError};
use chirp::cookie::Cookie;
use chirp::proto::{chirp_interface, OpenMode};
use chirp::server::{ChirpServer, ErrorDiscipline};
use chirp::transport::DirectTransport;
use errorscope::audit::{audit_crossing, ViolationCounts};
use errorscope::{Comm, ErrorCode, Scope, ScopedError};

struct Tally {
    explicit_in_contract: u32,
    escapes: u32,
    generic_exceptions: u32,
    violations: ViolationCounts,
}

/// One scripted session: normal I/O, a missing file, a full disk, and then
/// an environmental fault mid-stream. Returns what crossed the interface.
fn session(server_disc: ErrorDiscipline, client_disc: ClientDiscipline, fault: EnvFault) -> Tally {
    let mut fs = MemFs::new(64);
    fs.put("in.dat", b"0123456789");
    let cookie = Cookie::generate(9);
    let server = ChirpServer::new(fs, cookie.clone()).with_discipline(server_disc);
    let mut c = ChirpClient::new(DirectTransport::new(server)).with_discipline(client_disc);
    c.auth(cookie.as_bytes()).unwrap();

    let decl = chirp_interface();
    let mut tally = Tally {
        explicit_in_contract: 0,
        escapes: 0,
        generic_exceptions: 0,
        violations: ViolationCounts::default(),
    };
    let observe = |op: &str, err: &IoError, tally: &mut Tally| match err {
        IoError::Explicit(e) => {
            tally.explicit_in_contract += 1;
            let se = ScopedError::explicit(ErrorCode::new(e.code_name()), Scope::File, "proxy", "");
            tally.violations.add_all(&audit_crossing(&decl, op, &se));
        }
        IoError::GenericException(code) => {
            tally.generic_exceptions += 1;
            // The generic exception *is* an explicit crossing of the
            // interface with whatever code was stuffed inside; audit it.
            let inner = code.as_str().trim_start_matches("IOException:");
            let se = ScopedError {
                code: ErrorCode::owned(inner.to_string()),
                scope: Scope::File,
                comm: Comm::Explicit,
                message: String::new(),
                trail: vec![],
                span: obs::next_span_id(),
            };
            tally.violations.add_all(&audit_crossing(&decl, op, &se));
        }
        IoError::Escape(_) => tally.escapes += 1,
    };

    // 1. Normal read.
    let fd = c.open("in.dat", OpenMode::Read).unwrap();
    let _ = c.read_all(fd);
    let _ = c.close(fd);

    // 2. Missing file: FileNotFound is in open's vocabulary — a clean
    // explicit error either way.
    if let Err(e) = c.open("ghost", OpenMode::Read) {
        observe("open", &e, &mut tally);
    }

    // 3. Disk full: in write's vocabulary.
    let fd = c.open("big", OpenMode::Write).unwrap();
    if let Err(e) = c.write(fd, &[0u8; 100]) {
        observe("write", &e, &mut tally);
    }
    let _ = c.close(fd);

    // 4. The environmental fault strikes; subsequent reads cannot be
    // expressed in the interface.
    let fd_res = c.open("in.dat", OpenMode::Read);
    if let Some(s) = c.transport_mut().server_mut() {
        s.backend_mut().set_env_fault(Some(fault));
    }
    match fd_res {
        Ok(fd) => {
            if let Err(e) = c.read(fd, 4) {
                observe("read", &e, &mut tally);
            }
            // And once broken, everything else too.
            if let Err(e) = c.stat("in.dat") {
                observe("stat", &e, &mut tally);
            }
        }
        Err(e) => observe("open", &e, &mut tally),
    }
    tally
}

pub fn run(_: Size, _: &[String]) {
    println!("E4: generic vs finite error interfaces (Principle 4)\n");

    // The interface contracts themselves.
    let finite = chirp_interface();
    println!("The Chirp contract (finite vocabularies):\n{finite}\n");
    assert!(errorscope::audit::audit_interface(&finite).is_empty());
    let generic = errorscope::interface::file_writer_generic();
    let p4 = errorscope::audit::audit_interface(&generic);
    println!(
        "The generic IOException-style contract is itself a violation: {} P4 findings\n",
        p4.len()
    );

    let faults = [
        ("connection timed out", EnvFault::ConnectionTimedOut),
        ("credentials expired", EnvFault::CredentialsExpired),
        ("filesystem offline", EnvFault::FilesystemOffline),
    ];
    let mut rows = Vec::new();
    for (fname, fault) in faults {
        for (dname, sd, cd) in [
            (
                "finite/scoped",
                ErrorDiscipline::Scoped,
                ClientDiscipline::Scoped,
            ),
            (
                "generic/naive",
                ErrorDiscipline::NaiveGeneric,
                ClientDiscipline::NaiveGeneric,
            ),
        ] {
            let t = session(sd, cd, fault);
            rows.push(vec![
                fname.to_string(),
                dname.to_string(),
                t.explicit_in_contract.to_string(),
                t.generic_exceptions.to_string(),
                t.escapes.to_string(),
                t.violations.total().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "injected fault",
                "discipline",
                "explicit (in contract)",
                "generic exceptions",
                "escapes",
                "principle violations",
            ],
            &rows,
        )
    );
    println!(
        "Paper's shape: both disciplines deliver contract errors (FileNotFound,\n\
         DiskFull) explicitly. The difference is the environmental faults: the\n\
         finite interface converts each into exactly one escaping error, while\n\
         the generic interface keeps handing the program 'IOException's that\n\
         violate its reasonable expectations — each one a Principle 2/4\n\
         violation the auditor catches."
    );
}

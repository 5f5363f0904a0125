//! Figure 4 — "JVM Result Codes".
//!
//! Regenerates the paper's Figure 4 table with one extra column: what the
//! wrapper's result file reports. The JVM result code collapses five error
//! scopes into `1`; the result file preserves them.
//!
//! Run with: `cargo run -p bench --bin exp -- f4`

use crate::harness::Size;
use crate::render_table;
use chirp::backend::{EnvFault, MemFs};
use chirp::client::ChirpClient;
use chirp::cookie::Cookie;
use chirp::server::ChirpServer;
use chirp::transport::DirectTransport;
use gridvm::jvmio::{ChirpJobIo, JobIo, NoIo};
use gridvm::prelude::*;
use gridvm::programs;
use gridvm::wrapper::run_wrapped;

fn offline_io() -> ChirpJobIo<DirectTransport<MemFs>> {
    let mut fs = MemFs::default();
    fs.put("input.txt", b"data");
    fs.set_env_fault(Some(EnvFault::FilesystemOffline));
    let cookie = Cookie::generate(1);
    let server = ChirpServer::new(fs, cookie.clone());
    let mut client = ChirpClient::new(DirectTransport::new(server));
    let _ = client.auth(cookie.as_bytes());
    ChirpJobIo::new(client)
}

pub fn run(_: Size, _: &[String]) {
    let healthy = Installation::healthy();
    let small_heap = Installation::healthy().with_heap_limit(1 << 12);
    let bad_path = Installation::bad_path();

    struct Row {
        detail: &'static str,
        paper_scope: &'static str,
        paper_code: &'static str,
        image: Vec<u8>,
        install: Installation,
        io_offline: bool,
    }

    let rows = vec![
        Row {
            detail: "The program exited by completing main.",
            paper_scope: "Program",
            paper_code: "0",
            image: programs::completes_main(),
            install: healthy.clone(),
            io_offline: false,
        },
        Row {
            detail: "The program exited by calling System.exit(x) [x=42]",
            paper_scope: "Program",
            paper_code: "x",
            image: programs::calls_exit(42),
            install: healthy.clone(),
            io_offline: false,
        },
        Row {
            detail: "Exception: The program de-referenced a null pointer.",
            paper_scope: "Program",
            paper_code: "1",
            image: programs::null_dereference(),
            install: healthy.clone(),
            io_offline: false,
        },
        Row {
            detail: "Exception: There was not enough memory for the program.",
            paper_scope: "Virtual Machine",
            paper_code: "1",
            image: programs::exhausts_memory(),
            install: small_heap,
            io_offline: false,
        },
        Row {
            detail: "Exception: The Java installation is misconfigured.",
            paper_scope: "Remote Resource",
            paper_code: "1",
            image: programs::completes_main(),
            install: bad_path,
            io_offline: false,
        },
        Row {
            detail: "Exception: The home file system was offline.",
            paper_scope: "Local Resource",
            paper_code: "1",
            image: programs::reads_and_writes(),
            install: healthy.clone(),
            io_offline: true,
        },
        Row {
            detail: "Exception: The program image was corrupt.",
            paper_scope: "Job",
            paper_code: "1",
            image: programs::corrupt_image(),
            install: healthy.clone(),
            io_offline: false,
        },
    ];

    let mut table = Vec::new();
    for row in rows {
        let w = if row.io_offline {
            let mut io = offline_io();
            run_wrapped(&row.image, &row.install, &mut io)
        } else {
            let mut io: Box<dyn JobIo> = Box::new(NoIo);
            run_wrapped(&row.image, &row.install, io.as_mut())
        };
        let measured_scope = w.result_file.scope().name().to_string();
        let paper_scope_norm = row.paper_scope.to_ascii_lowercase().replace(' ', "-");
        assert_eq!(
            measured_scope, paper_scope_norm,
            "scope mismatch for '{}'",
            row.detail
        );
        table.push(vec![
            row.detail.to_string(),
            row.paper_scope.to_string(),
            row.paper_code.to_string(),
            w.jvm_exit.0.to_string(),
            format!("{}", w.result_file),
        ]);
    }

    println!("Figure 4: JVM Result Codes (paper columns + our measurements)\n");
    println!(
        "{}",
        render_table(
            &[
                "Execution Detail",
                "Error Scope (paper)",
                "JVM code (paper)",
                "JVM code (ours)",
                "Wrapper result file (ours)",
            ],
            &table,
        )
    );
    println!(
        "The JVM result code is not useful: a result of 1 could indicate a normal\n\
         program exit, an exit with an exception, or an error in the surrounding\n\
         environment. The wrapper's result file distinguishes every scope."
    );
}

//! Figure 2 — "The Java Universe".
//!
//! Regenerates the component structure of Figure 2: the starter invokes the
//! JVM, which invokes the wrapper, which runs the user's program; the
//! program's I/O library speaks Chirp over the local (loopback) channel to
//! the proxy in the starter, authenticated by a shared secret; the proxy
//! reaches the shadow's file system.
//!
//! Run with: `cargo run -p bench --bin exp -- f2`

use crate::harness::Size;
use chirp::backend::MemFs;
use chirp::client::ChirpClient;
use chirp::cookie::Cookie;
use chirp::server::ChirpServer;
use chirp::transport::DirectTransport;
use errorscope::resultfile::Outcome;
use gridvm::jvmio::ChirpJobIo;
use gridvm::prelude::*;
use gridvm::programs;
use gridvm::wrapper::run_wrapped;

pub fn run(_: Size, _: &[String]) {
    println!("Figure 2: The Java Universe — component activation sequence\n");

    // [starter] creates the scratch directory and transfers input files.
    println!("[starter]    creating scratch directory");
    let mut sandbox = MemFs::new(1 << 20);
    sandbox.put("input.txt", b"grid data");
    println!("[starter]    transferred input.txt (9 bytes) into the sandbox");

    // [starter] generates the shared secret and starts the Chirp proxy.
    let cookie = Cookie::generate(77);
    println!("[starter]    wrote shared-secret cookie into the scratch directory");
    let server = ChirpServer::new(sandbox, cookie.clone());
    println!("[starter]    chirp proxy listening on the loopback channel");

    // [jvm] starts with the owner-configured installation.
    let install = Installation::healthy();
    println!("[jvm]        started from {}", install.path);

    // [wrapper] locates the program; [i/o library] authenticates via the
    // cookie revealed through the local file system.
    let mut client = ChirpClient::new(DirectTransport::new(server));
    client
        .auth(cookie.as_bytes())
        .expect("local-file-system secret accepted");
    println!("[io-library] authenticated to the proxy with the shared secret");
    let mut io = ChirpJobIo::new(client);

    // [wrapper] invokes the actual program, catching anything it throws.
    println!("[wrapper]    invoking user program 'reads-and-writes'");
    let run = run_wrapped(&programs::reads_and_writes(), &install, &mut io);

    println!("[program]    stdout: {:?}", run.stdout.trim());
    println!("[wrapper]    caught outcome, classified scope, wrote result file:");
    println!("[wrapper]      {}", run.result_file_bytes);
    println!(
        "[starter]    read result file; IGNORED the JVM exit code ({})",
        run.jvm_exit.0
    );

    // Verify the full path worked.
    assert!(matches!(
        run.result_file.outcome,
        Outcome::Completed { exit_code: 0 }
    ));
    let expected: i64 = b"grid data".iter().map(|b| i64::from(*b)).sum();
    assert_eq!(run.stdout.trim(), expected.to_string());
    let fs = io
        .client_mut()
        .transport_mut()
        .server_mut()
        .unwrap()
        .backend_mut();
    assert_eq!(fs.get("output.txt"), Some(expected.to_string().as_bytes()));
    println!(
        "[shadow fs]  output.txt now contains {:?} — written through the proxy",
        expected.to_string()
    );

    println!("\nEvery Figure 2 component exercised: starter, JVM, wrapper, program,");
    println!("I/O library, loopback Chirp channel, proxy, and the backing file system.");
}

//! The Chirp proxy over a real TCP loopback connection.
//!
//! Run with: `cargo run --example io_proxy`
//!
//! Demonstrates Figure 2's I/O path with the proxy behind a `127.0.0.1`
//! socket on its own thread, the shared-secret cookie handshake of §2.2,
//! and the escaping error: when the backing store goes offline mid-session,
//! the proxy *breaks the connection* rather than inventing an in-vocabulary
//! excuse (§3.1). The job's library sees only the closed socket, so its
//! escape has network scope; the starter, which hosts the proxy, knows why.

use chirp::backend::EnvFault;
use chirp::client::IoError;
use chirp::prelude::*;
use chirp::{serve_once, TcpTransport};
use errorscope::Scope;

fn main() {
    // The starter side: scratch sandbox + proxy + per-job cookie.
    let mut sandbox = MemFs::new(1 << 20);
    sandbox.put("input.txt", b"10 31 42");
    // The fault we will inject later, planted as an op-countdown so it
    // strikes mid-session on the server thread.
    sandbox.set_fault_after(6, EnvFault::FilesystemOffline);

    let cookie = Cookie::generate(0x10B);
    let server = ChirpServer::new(sandbox, cookie.clone());
    let (addr, server_thread) = serve_once(server).expect("bind 127.0.0.1");
    println!("== the starter's proxy listens on {addr} ==");

    // The job side: the I/O library dials the proxy, scoped discipline.
    let transport = TcpTransport::connect(addr).expect("dial the proxy");
    let mut lib = ChirpClient::new(transport).with_discipline(ClientDiscipline::Scoped);

    println!("== authenticating with the scratch-directory cookie ==");
    lib.auth(cookie.as_bytes()).expect("cookie accepted");

    println!("== normal I/O through the proxy ==");
    let fd = lib.open("input.txt", OpenMode::Read).expect("open");
    let data = lib.read_all(fd).expect("read");
    println!("  read {:?}", String::from_utf8_lossy(&data));
    lib.close(fd).expect("close");

    let out = lib.open("result.txt", OpenMode::Write).expect("open out");
    lib.write(out, b"83").expect("write");
    println!("  wrote result.txt (2 bytes)");

    println!("== an explicit, in-vocabulary error: FileNotFound on open ==");
    match lib.open("missing.dat", OpenMode::Read) {
        Err(IoError::Explicit(e)) => println!("  program-visible exception: {e}"),
        other => panic!("expected explicit error, got {other:?}"),
    }

    println!("== the backing store goes offline: the connection breaks ==");
    loop {
        match lib.stat("input.txt") {
            Ok(info) => println!("  stat ok ({} bytes)", info.size),
            Err(IoError::Escape(se)) => {
                println!("  ESCAPING error: {se}");
                // The socket just closed: the library cannot know why, so
                // the escape has network scope, to be widened with time (§5).
                assert_eq!(se.scope, Scope::Network);
                break;
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }

    println!("== the connection stays broken: every later call escapes ==");
    assert!(matches!(
        lib.open("input.txt", OpenMode::Read),
        Err(IoError::Escape(_))
    ));

    drop(lib);
    let session = server_thread.join().expect("server thread");
    // The starter, on its side of the socket, knows exactly why.
    let reason = session.disconnect.expect("the proxy hung up");
    assert_eq!(reason, DisconnectReason::Env(EnvFault::FilesystemOffline));
    println!(
        "\nproxy handled {} requests, then hung up ({reason:?}) — \
         the job saw a closed socket; only the starter knows why.",
        session.server.requests_handled
    );
}

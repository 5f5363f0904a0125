//! What one chirp session allocates, held by counts.
//!
//! A counting global allocator (`propcheck::counting`: in a test crate, so
//! the library keeps `forbid(unsafe_code)`) counts what the calling thread
//! requests.
//! The counts are a function of the code, not of the host.

use chirp::backend::MemFs;
use chirp::transport::DirectTransport;
use chirp::{ChirpClient, ChirpServer, Cookie, OpenMode};
use propcheck::counting::{allocated, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The job's whole conversation with its proxy, as the starter sets it up
/// and the I/O library conducts it: a home file system with one input
/// file, a cookie handshake, then open, read to the end (two reads),
/// close — five round trips, every message through the real encoding.
#[test]
fn an_authenticated_open_read_close_session_stays_on_its_diet() {
    let ((data, calls), allocations, bytes) = allocated(|| {
        let mut fs = MemFs::default();
        fs.put("input.txt", b"12 34 7 1005");
        let server = ChirpServer::new(fs, Cookie::generate(9));
        let mut client = ChirpClient::new(DirectTransport::new(server));
        client.auth(Cookie::generate(9).as_bytes()).expect("auth");
        let fd = client.open("input.txt", OpenMode::Read).expect("open");
        let data = client.read_all(fd).expect("read");
        client.close(fd).expect("close");
        (data, client.calls)
    });

    assert_eq!((data.as_slice(), calls), (&b"12 34 7 1005"[..], 5));
    // Achieved: 29 allocations, 2,468 bytes — it was 57 and 91,833 when
    // every message was copied four times and the event ring reserved
    // its first thousand slots up front. Budgets are a tenth above.
    assert!(
        allocations <= 32 && bytes <= 2_720,
        "{allocations} allocations, {bytes} bytes"
    );
}

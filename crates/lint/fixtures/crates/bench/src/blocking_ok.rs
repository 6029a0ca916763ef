//! Fixture: `bench` is not a simulation crate — its CLI may sleep and do
//! real file IO; rule `blocking` must not fire here.

fn f() {
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _d = std::fs::read("/tmp/x");
}

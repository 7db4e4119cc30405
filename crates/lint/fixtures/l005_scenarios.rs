//! L005 fixture A: the simulator-side registry (the full set).
pub fn install_registry() {
    pcc_core::register_algorithms();
    pcc_tcp::register_algorithms();
}

//! L005 fixture B: the udp side, missing the tcp family.
pub fn install_registry() {
    pcc_core::register_algorithms();
}

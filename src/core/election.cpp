#include "core/election.hpp"

#include "core/protocol.hpp"

namespace arl::core {

ElectionReport elect(const config::Configuration& configuration, const ElectionOptions& options) {
  ElectionScratch scratch;
  return elect(configuration, options, scratch);
}

ElectionReport elect(const config::Configuration& configuration, const ElectionOptions& options,
                     ElectionScratch& scratch) {
  // The canonical pipeline lives behind the protocol registry now; elect()
  // is the source-compatible entry point for canonical-only callers.
  return run_protocol(configuration, ProtocolSpec::canonical(), options, scratch);
}

}  // namespace arl::core

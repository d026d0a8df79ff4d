#include "src/runtime/decode.hpp"

namespace af {

void StreamDecoder::step_batch(std::span<DecodeStepSlot> slots, Arena&) {
  for (DecodeStepSlot& s : slots) {
    try {
      s.token = s.decoder->step(s.last_token);
    } catch (...) {
      s.error = std::current_exception();
    }
  }
}

}  // namespace af

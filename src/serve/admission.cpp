#include "serve/admission.hpp"

#include "obs/metrics.hpp"

namespace gg::serve {

const char* degrade_level_name(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::Normal: return "normal";
    case DegradeLevel::SheddingQueries: return "shedding-queries";
    case DegradeLevel::PausingTailers: return "pausing-tailers";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionOptions& opts,
                                         obs::Registry* registry)
    : opts_(opts) {
  if (registry != nullptr) {
    m_shed_ = registry->counter("serve.queries_shed");
    m_paused_ = registry->counter("serve.tailers_paused");
    m_resumed_ = registry->counter("serve.tailers_resumed");
    m_evicted_ = registry->counter("serve.sessions_evicted");
    g_resident_ = registry->gauge("serve.resident_bytes");
    g_budget_ = registry->gauge("serve.budget_bytes");
    g_level_ = registry->gauge("serve.degrade_level");
    g_sessions_ = registry->gauge("serve.sessions");
    g_budget_->set(static_cast<double>(opts_.budget_bytes));
  }
}

void AdmissionController::update(u64 resident_bytes, size_t sessions) {
  resident_bytes_ = resident_bytes;
  const double usage = opts_.budget_bytes == 0
                           ? 1.0
                           : static_cast<double>(resident_bytes) /
                                 static_cast<double>(opts_.budget_bytes);
  DegradeLevel level = DegradeLevel::Normal;
  if (usage >= opts_.pause_fraction) {
    level = DegradeLevel::PausingTailers;
  } else if (usage >= opts_.shed_fraction) {
    level = DegradeLevel::SheddingQueries;
  }
  level_ = level;
  if (g_resident_ != nullptr) {
    g_resident_->set(static_cast<double>(resident_bytes));
    g_level_->set(static_cast<double>(static_cast<u8>(level)));
    g_sessions_->set(static_cast<double>(sessions));
  }
}

bool AdmissionController::admit_heavy_query() {
  if (level() == DegradeLevel::Normal) return true;
  ++queries_shed_;
  if (m_shed_ != nullptr) m_shed_->add();
  return false;
}

void AdmissionController::note_paused() {
  ++tailers_paused_;
  if (m_paused_ != nullptr) m_paused_->add();
}

void AdmissionController::note_resumed() {
  if (m_resumed_ != nullptr) m_resumed_->add();
}

void AdmissionController::note_evicted() {
  ++sessions_evicted_;
  if (m_evicted_ != nullptr) m_evicted_->add();
}

}  // namespace gg::serve

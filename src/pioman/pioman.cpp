#include "pioman/pioman.hpp"

#include "obs/recorder.hpp"

namespace nmx::pioman {

Manager::Manager(sim::Engine& eng, ManagerConfig cfg) : eng_(eng), cfg_(cfg) {}

Ltask& Manager::submit(std::string name, Ltask::Body body) {
  tasks_.push_back(std::make_unique<Ltask>(std::move(name), std::move(body)));
  tasks_.back()->state_ = LtaskState::Scheduled;
  return *tasks_.back();
}

void Manager::notify() {
  if (scheduled_) return;
  scheduled_ = true;
  eng_.schedule_in_checked(cfg_.reaction_period, [this] {
    scheduled_ = false;
    service();
  });
}

void Manager::service() {
  ++passes_;
  bool more = false;
  int serviced = 0;
  for (auto& t : tasks_) {
    if (t->state() == LtaskState::Done) continue;
    if (t->step()) {
      more = true;
      ++serviced;
    }
  }
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->instant(eng_.now(), cfg_.rank, obs::Cat::PiomanPass, 0, serviced);
    rec->metrics().counter("pioman.passes").add(1);
    rec->metrics()
        .histogram("pioman.pass.serviced", {0, 1, 2, 4, 8})
        .observe(static_cast<double>(serviced));
  }
  if (more) notify();
}

}  // namespace nmx::pioman
